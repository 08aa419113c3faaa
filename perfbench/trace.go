package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// span is one timed call into a layer. Spans of one op share Op; Parent
// is the ID of the span whose call caused this one, or -1 at top level.
// Times are nanoseconds since the recorder started.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder holds spans in memory until the run ends. A nil *recorder
// records nothing, so untraced code paths pay one nil check per call.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span and returns its ID (-1 on a nil recorder).
func (r *recorder) begin(name string, op, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, Op: op, ID: id, Parent: parent, Start: now, End: now})
	return id
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := time.Since(r.origin).Nanoseconds()
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// opSpans returns op's spans, in start order.
func (r *recorder) opSpans(op int) []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []span
	for _, s := range r.spans {
		if s.Op == op {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// unionLen returns how much of [lo, hi) the union of spans covers.
// Spans may overlap, as the hook calls of concurrent workers do.
func unionLen(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTime is parent's duration minus the part of it its children cover.
func selfTime(parent span, children []span) int64 {
	return parent.dur() - unionLen(children, parent.Start, parent.End)
}

// sumByName sums the durations of spans named name.
func sumByName(spans []span, name string) int64 {
	var t int64
	for _, s := range spans {
		if s.Name == name {
			t += s.dur()
		}
	}
	return t
}

// childrenOf returns the spans whose parent is id.
func childrenOf(spans []span, id int) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// opTrace is what the layer wrappers of one op report besides spans:
// the op and the core span their spans belong under, and the counts the
// wrappers see at the layer boundary.
type opTrace struct {
	rec      *recorder
	op       int
	coreSpan int

	candidates atomic.Int64 // candidates handed to the pathval hooks
	refuted    atomic.Int64 // of those, proved infeasible
	loads      atomic.Int64
	loadHits   atomic.Int64
	loadBytes  atomic.Int64
	saves      atomic.Int64

	lowerAlloc uint64 // bytes allocated by minicc.LowerAll
}

// instrument wraps ec's Stage-2 hooks and entry cache so every call into
// pathval and acache records a span under the op's core span.
func (t *opTrace) instrument(ec *core.Config) {
	if t.rec == nil {
		return
	}
	if vp := ec.ValidatePath; vp != nil {
		ec.ValidatePath = func(ctx context.Context, bug *core.PossibleBug, mode core.Mode) core.ValidationOutcome {
			id := t.rec.begin("pathval.validate", t.op, t.coreSpan)
			out := vp(ctx, bug, mode)
			t.rec.end(id)
			t.candidates.Add(1)
			if !out.Feasible {
				t.refuted.Add(1)
			}
			return out
		}
	}
	if vb := ec.ValidateBatch; vb != nil {
		ec.ValidateBatch = func(ctx context.Context, bugs []*core.PossibleBug, mode core.Mode) []core.ValidationOutcome {
			id := t.rec.begin("pathval.batch", t.op, t.coreSpan)
			outs := vb(ctx, bugs, mode)
			t.rec.end(id)
			t.candidates.Add(int64(len(bugs)))
			for _, out := range outs {
				if !out.Feasible {
					t.refuted.Add(1)
				}
			}
			return outs
		}
	}
	if ec.Cache != nil {
		ec.Cache = &tracedCache{inner: ec.Cache, t: t}
	}
}

// tracedCache is a core.EntryCache that times and counts the calls into
// the store it wraps.
type tracedCache struct {
	inner core.EntryCache
	t     *opTrace
}

func (c *tracedCache) Load(key string) ([]byte, bool) {
	id := c.t.rec.begin("acache.load", c.t.op, c.t.coreSpan)
	data, ok := c.inner.Load(key)
	c.t.rec.end(id)
	c.t.loads.Add(1)
	if ok {
		c.t.loadHits.Add(1)
		c.t.loadBytes.Add(int64(len(data)))
	}
	return data, ok
}

func (c *tracedCache) Save(key string, data []byte) {
	id := c.t.rec.begin("acache.save", c.t.op, c.t.coreSpan)
	c.inner.Save(key, data)
	c.t.rec.end(id)
	c.t.saves.Add(1)
}

// timed runs fn inside a top-level span named name.
func (t *opTrace) timed(name string, fn func()) {
	id := t.rec.begin(name, t.op, -1)
	fn()
	t.rec.end(id)
}

// totalAlloc returns the bytes allocated so far by the process.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
