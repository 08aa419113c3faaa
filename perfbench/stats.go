package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(ns int64) float64 { return float64(ns) / 1e6 }

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// frac returns a/b, or 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}

// settle runs before every timed setup and op. It collects the garbage
// the previous op and its checks left, so no op pays for another's, and
// waits for pending file writes (the stores of earlier setups and runs) to
// reach the disk, so no op competes with their writeback.
func settle() {
	runtime.GC()
	syscall.Sync()
}

// runtimeProbe tracks the Go runtime over the traced ops: the share of
// CPU time spent in the garbage collector, and the peak live heap sampled
// every millisecond.
type runtimeProbe struct {
	gcCPU, totalCPU float64
	peakHeap        uint64

	mu   sync.Mutex
	stop chan struct{}
	done chan struct{}
	cpu0 [2]float64
}

const (
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mTotalCPU = "/cpu/classes/total:cpu-seconds"
	mHeap     = "/memory/classes/heap/objects:bytes"
)

func readCPU() [2]float64 {
	s := []metrics.Sample{{Name: mGCCPU}, {Name: mTotalCPU}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// start begins one measured interval.
func (p *runtimeProbe) start() {
	p.cpu0 = readCPU()
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	go func() {
		defer close(p.done)
		s := []metrics.Sample{{Name: mHeap}}
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			p.mu.Lock()
			p.peakHeap = max(p.peakHeap, s[0].Value.Uint64())
			p.mu.Unlock()
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
		}
	}()
}

// end closes the interval start opened and waits for the sampler.
func (p *runtimeProbe) end() {
	close(p.stop)
	<-p.done
	c := readCPU()
	p.gcCPU += c[0] - p.cpu0[0]
	p.totalCPU += c[1] - p.cpu0[1]
}

func (p *runtimeProbe) gcFrac() float64 { return frac(p.gcCPU, p.totalCPU) }

func (p *runtimeProbe) heapPeakMB() float64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return mb(p.peakHeap)
}
