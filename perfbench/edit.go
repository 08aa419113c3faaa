package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"sort"
	"time"

	pata "repro"
	"repro/internal/acache"
	"repro/internal/callgraph"
	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/patad"
)

// editMinOps is the fewest edits an edit-loop run measures, so that the
// 75th percentile has ten samples beyond it.
const editMinOps = 40

// coldScanEvery is how often, in edits, the untraced edit loop also runs
// an uncached library scan of the current sources: the cold baseline a
// warm edit is compared with, and the library-path report the daemon's
// must equal byte for byte.
const coldScanEvery = 4

// runEditLoop measures a resident patad fed by one closed-loop client
// over ServeStream. Each step sends invalidate with a seeded edit of 1–4
// functions plus the revert of the previous edit, then analyze, and waits
// for both. A traced run replays every edit on the library path too
// (lowering, fingerprints, entry keys, the engine over its own warm
// store, rendering), traced on every other step, to time the layers the
// daemon calls and to show the daemon's own overhead.
func runEditLoop(b *bench) error {
	spec := withSeed(b.w.spec(), b.seed)
	c := oscorpus.Generate(spec)
	refRes, err := pata.AnalyzeSources(moduleName, c.Sources, pata.Config{})
	if err != nil {
		return fmt.Errorf("reference scan: %w", err)
	}
	ref := render(refRes)
	b.op("reference scan", b.w.expect.check(c, refRes.Bugs, len(refRes.Incomplete)))
	b.env = newEnvelope(b.w, b.seed, c, refRes.Stats.EntryFunctions, int(b.seconds/time.Second), b.trace)

	// Populate a fresh store with one cold analyze. Its time is a
	// per-layer figure, not set-up time: it is dominated by one small file
	// write per entry, whose cost varies several-fold with the state of
	// the filesystem and would swamp everything else set-up measures.
	dir, err := os.MkdirTemp(b.work, "daemon-")
	if err != nil {
		return err
	}
	settle()
	t0 := time.Now()
	d, err := startDaemon(c.Sources, dir, b.stderr)
	if err != nil {
		return fmt.Errorf("populate: %w", err)
	}
	resp, _, err := d.call(patad.Request{ID: "populate", Op: patad.OpAnalyze})
	b.sample("patad.populate_ms", ms(time.Since(t0).Nanoseconds()))
	b.op("populate", checkAnalyze(b.w.expect, c, resp, ref, err))
	d.stop()

	// Set-up: generate the corpus, start a daemon over the populated
	// store, and wait for its first, warm analyze: what an editor session
	// waits for before its first verdict. The last daemon serves.
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		if i > 0 {
			d.stop()
		}
		settle()
		start := time.Now()
		c = oscorpus.Generate(spec)
		d, err = startDaemon(c.Sources, dir, b.stderr)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		resp, _, err := d.call(patad.Request{ID: "start", Op: patad.OpAnalyze})
		setups = append(setups, time.Since(start).Seconds())
		b.sample("setup_s", setups[len(setups)-1])
		b.op("setup", checkAnalyze(b.w.expect, c, resp, ref, err))
	}
	defer d.stop()
	b.set("setup_s", median(setups))

	var lib *library
	if b.trace {
		dir, err := os.MkdirTemp(b.work, "library-")
		if err != nil {
			return err
		}
		if lib, err = newLibrary(c.Sources, dir); err != nil {
			return fmt.Errorf("library setup: %w", err)
		}
	}

	gen := newEditGen(c.Sources, b.seed)
	var probe runtimeProbe
	var edits, scans, tracedLib, plainLib []float64
	t0 = time.Now()
	for step := 0; b.measuring(t0, step, editMinOps); step++ {
		files, changed := gen.next()
		inv := patad.Request{ID: fmt.Sprintf("inv-%d", step), Op: patad.OpInvalidate, Sources: files}
		an := patad.Request{ID: fmt.Sprintf("an-%d", step), Op: patad.OpAnalyze}
		traced := b.trace && step%2 == 0
		t := &opTrace{op: step}
		settle()
		if traced {
			t.rec = b.rec
			probe.start()
		}
		a0 := totalAlloc()
		start := time.Now()
		id := t.rec.begin("patad.invalidate", step, -1)
		invResp, _, invErr := d.call(inv)
		t.rec.end(id)
		id = t.rec.begin("patad.analyze", step, -1)
		anResp, anBytes, anErr := d.call(an)
		t.rec.end(id)
		wall := time.Since(start)
		if traced {
			probe.end()
		}
		edits = append(edits, ms(wall.Nanoseconds()))
		b.sample("edit_ms", edits[len(edits)-1])
		b.sample("alloc_mb", mb(totalAlloc()-a0))

		err := checkInvalidate(invResp, changed, invErr)
		if err == nil {
			err = checkAnalyze(b.w.expect, c, anResp, ref, anErr)
		}
		b.op(fmt.Sprintf("edit %d", step), err)

		switch {
		case lib != nil:
			settle()
			if traced {
				probe.start()
			}
			libStart := time.Now()
			frontier, res, text, err := lib.apply(t, files)
			libWall := time.Since(libStart)
			if traced {
				probe.end()
				tracedLib = append(tracedLib, libWall.Seconds())
				b.sample("patad.invalidate_ms", ms(sumByName(b.rec.opSpans(step), "patad.invalidate")))
				b.sample("patad.analyze_ms", ms(sumByName(b.rec.opSpans(step), "patad.analyze")))
				b.sample("patad.frontier", float64(len(frontier)))
				b.sample("patad.response_kb", float64(anBytes)/1024)
				if err == nil {
					b.layerSamples(t, &res.Stats, text, wall+libWall)
				}
			} else {
				plainLib = append(plainLib, libWall.Seconds())
				b.sample("patad.overhead_ms", ms((wall - libWall).Nanoseconds()))
			}
			if err == nil && invResp != nil && !slices.Equal(frontier, invResp.Frontier) {
				err = fmt.Errorf("library frontier has %d entries, patad's %d", len(frontier), len(invResp.Frontier))
			}
			if err == nil && anResp != nil && text != anResp.Report {
				err = fmt.Errorf("library report differs from patad's")
			}
			b.op(fmt.Sprintf("library replay %d", step), err)
		case step%coldScanEvery == coldScanEvery-1:
			settle()
			scanStart := time.Now()
			res, err := pata.AnalyzeSources(moduleName, gen.cur, pata.Config{})
			scans = append(scans, time.Since(scanStart).Seconds())
			b.sample("scan_s", scans[len(scans)-1])
			if err == nil && anResp != nil && render(res) != anResp.Report {
				err = fmt.Errorf("cold library report differs from patad's")
			}
			b.op(fmt.Sprintf("cold scan %d", step), err)
		}
	}

	if b.trace {
		b.setMedians()
		b.set("runtime.gc_cpu_frac", probe.gcFrac())
		b.set("runtime.heap_peak_mb", probe.heapPeakMB())
		b.set("trace.overhead_frac", median(tracedLib)/median(plainLib)-1)
		return nil
	}
	b.set("scan_s", median(scans))
	b.set("kloc_per_s", float64(c.Lines)/1000/median(scans))
	b.set("edit_ms_p50", median(edits))
	b.set("edit_ms_p75", quantile(edits, 0.75))
	b.set("alloc_mb", median(b.samples["alloc_mb"]))
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", rss)
	return nil
}

// checkInvalidate checks an invalidate response: accepted, and reporting
// exactly the functions the edit and its revert touched.
func checkInvalidate(resp *patad.Response, changed []string, err error) error {
	switch {
	case err != nil:
		return err
	case !resp.OK:
		return fmt.Errorf("invalidate refused: %s", resp.Error)
	case !slices.Equal(resp.Changed, changed):
		return fmt.Errorf("invalidate changed %v, want %v", resp.Changed, changed)
	case len(resp.Frontier) == 0:
		return fmt.Errorf("invalidate reported an empty frontier")
	}
	return nil
}

// checkAnalyze checks an analyze response: accepted (not shed), a report
// equal to the reference up to the counts an inert edit moves, and
// findings that meet the ground-truth expectation.
func checkAnalyze(e expectation, c *oscorpus.Corpus, resp *patad.Response, ref string, err error) error {
	switch {
	case err != nil:
		return err
	case !resp.OK:
		return fmt.Errorf("analyze refused: %s", resp.Error)
	case editInvariant(resp.Report) != editInvariant(ref):
		return fmt.Errorf("patad report differs from the reference report")
	}
	return e.check(c, resp.Bugs, len(resp.Incomplete))
}

var editCounts = regexp.MustCompile(`\d+ (path steps|typestates)`)

// editInvariant blanks the two counts an oscorpus.Mutate edit changes: the
// added local lengthens the witness paths through the mutated function by
// one step and gives the uninitialized-use checker one more typestate.
// Every other byte of the report stays the same under such an edit.
func editInvariant(report string) string {
	return editCounts.ReplaceAllString(report, "N $1")
}

// daemon is an in-process patad server with one session over pipes.
type daemon struct {
	srv  *patad.Server
	w    *io.PipeWriter
	r    *bufio.Reader
	done chan struct{}
}

func startDaemon(sources map[string]string, cacheDir string, stderr io.Writer) (*daemon, error) {
	srv, err := patad.New(patad.Options{
		Config:  pata.Config{CacheDir: cacheDir},
		Sources: sources,
		Stderr:  stderr,
	})
	if err != nil {
		return nil, err
	}
	reqR, reqW := io.Pipe()
	respR, respW := io.Pipe()
	d := &daemon{srv: srv, w: reqW, r: bufio.NewReaderSize(respR, 1<<20), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		srv.ServeStream(reqR, respW)
		// Unblock a client still writing or reading after the session.
		reqR.Close()
		respW.Close()
	}()
	return d, nil
}

// call sends one request and waits for its response. It returns the
// response and the size of its line in bytes.
func (d *daemon) call(req patad.Request) (*patad.Response, int, error) {
	line, err := json.Marshal(req)
	if err != nil {
		return nil, 0, fmt.Errorf("encode %s request: %w", req.Op, err)
	}
	if _, err := d.w.Write(append(line, '\n')); err != nil {
		return nil, 0, fmt.Errorf("send %s request: %w", req.Op, err)
	}
	out, err := d.r.ReadBytes('\n')
	if err != nil {
		return nil, 0, fmt.Errorf("read %s response: %w", req.Op, err)
	}
	var resp patad.Response
	if err := json.Unmarshal(out, &resp); err != nil {
		return nil, 0, fmt.Errorf("decode %s response: %w", req.Op, err)
	}
	return &resp, len(out), nil
}

// stop ends the session, waits for it, and drains the server.
func (d *daemon) stop() {
	d.w.Close()
	<-d.done
	d.srv.Shutdown()
}

// editGen makes the edit loop's seeded edits. Every edit mutates 1–4
// functions of the base sources with oscorpus.Mutate, which leaves every
// finding and line number unchanged, so every state has the base report.
type editGen struct {
	base     map[string]string
	cur      map[string]string
	curNames []string
	rng      *rand.Rand
}

func newEditGen(base map[string]string, seed int64) *editGen {
	return &editGen{base: base, cur: base, rng: rand.New(rand.NewSource(seed))}
}

// next moves to a new edit. It returns the files whose content changes
// (the new edit plus the revert of the previous one) and the functions
// whose body changes, sorted.
func (g *editGen) next() (map[string]string, []string) {
	nxt, names := oscorpus.Mutate(g.base, 1+g.rng.Intn(4), g.rng.Int63())
	files := make(map[string]string)
	for f, src := range nxt {
		if g.cur[f] != src {
			files[f] = src
		}
	}
	set := make(map[string]bool)
	for _, n := range append(names, g.curNames...) {
		set[n] = true
	}
	g.cur, g.curNames = nxt, names
	return files, sortedKeys(set)
}

// library replays patad's invalidate and analyze on the library path:
// the same public calls, over its own warm store, without the protocol,
// admission control or JSON.
type library struct {
	sources map[string]string
	mod     *cir.Module
	ec      core.Config
}

// newLibrary lowers sources and populates a fresh store under dir with
// one cold run.
func newLibrary(sources map[string]string, dir string) (*library, error) {
	store, err := acache.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	ec, err := pata.Config{}.EngineConfig()
	if err != nil {
		return nil, err
	}
	ec.Cache = store
	mod, err := minicc.LowerAll(moduleName, sources)
	if err != nil {
		return nil, err
	}
	for _, fn := range mod.SortedFuncs() {
		fn.Fingerprint()
	}
	core.RunParallelCtx(context.Background(), mod, ec, 0)
	return &library{sources: sources, mod: mod, ec: ec}, nil
}

// apply replays one invalidate (files replace their current content) and
// the analyze after it. It returns the entry-key frontier, the result and
// its rendered report.
func (l *library) apply(t *opTrace, files map[string]string) ([]string, *pata.Result, string, error) {
	next := make(map[string]string, len(l.sources))
	for f, src := range l.sources {
		next[f] = src
	}
	for f, src := range files {
		next[f] = src
	}
	mod, err := t.lower(next)
	if err != nil {
		return nil, nil, "", err
	}
	t.timed("cir.fingerprint", func() {
		for _, fn := range mod.SortedFuncs() {
			if _, edited := files[fn.File]; !edited {
				if old, ok := l.mod.Funcs[fn.Name]; ok && fn.AdoptFingerprint(old) {
					continue
				}
			}
			fn.Fingerprint()
		}
	})
	var oldCG, newCG *callgraph.Graph
	t.timed("callgraph.build", func() {
		oldCG, newCG = callgraph.Build(l.mod), callgraph.Build(mod)
	})
	var frontier []string
	t.timed("callgraph.entry_key", func() {
		oldKeys := make(map[string]uint64)
		for _, fn := range oldCG.EntryFunctions() {
			oldKeys[fn.Name] = oldCG.EntryKey(fn, 0)
		}
		for _, fn := range newCG.EntryFunctions() {
			if key, ok := oldKeys[fn.Name]; !ok || key != newCG.EntryKey(fn, 0) {
				frontier = append(frontier, fn.Name)
			}
		}
	})
	sort.Strings(frontier)
	res, text := t.engine(mod, l.ec)
	l.sources, l.mod = next, mod
	return frontier, res, text, nil
}
