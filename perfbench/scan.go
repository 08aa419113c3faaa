package main

import (
	"context"
	"fmt"
	"time"

	pata "repro"
	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
)

// moduleName is the name every analysis gives its module, as patad does.
const moduleName = "program"

// scanMinOps is the fewest analyses a scan run measures, however short
// --seconds is.
const scanMinOps = 5

// runScan measures cold batch analyses of one corpus: every op is
// pata.AnalyzeSources with shipped defaults and no cache, timed from the
// call to the rendered report. A traced run alternates traced ops, which
// run the same steps one layer call at a time, with untraced ones.
func runScan(b *bench) error {
	spec := withSeed(b.w.spec(), b.seed)
	var c *oscorpus.Corpus
	var ref string
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		settle()
		t0 := time.Now()
		c = oscorpus.Generate(spec)
		res, err := pata.AnalyzeSources(moduleName, c.Sources, pata.Config{})
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		text := render(res)
		setups = append(setups, time.Since(t0).Seconds())
		b.sample("setup_s", setups[len(setups)-1])
		if i == 0 {
			ref = text
			b.env = newEnvelope(b.w, b.seed, c, res.Stats.EntryFunctions, int(b.seconds/time.Second), b.trace)
		} else if text != ref {
			b.op("setup", fmt.Errorf("report differs between setups"))
			continue
		}
		b.op("setup", b.w.expect.check(c, res.Bugs, len(res.Incomplete)))
	}
	b.set("setup_s", median(setups))

	var probe runtimeProbe
	var walls, tracedWalls []float64
	t0 := time.Now()
	for op := 0; b.measuring(t0, op, scanMinOps); op++ {
		var res *pata.Result
		var text string
		var err error
		settle()
		a0 := totalAlloc()
		start := time.Now()
		traced := b.trace && op%2 == 0
		if traced {
			t := &opTrace{rec: b.rec, op: op}
			probe.start()
			res, text, err = analyzeTraced(t, c.Sources)
			probe.end()
			wall := time.Since(start)
			tracedWalls = append(tracedWalls, wall.Seconds())
			if err == nil {
				b.layerSamples(t, &res.Stats, text, wall)
			}
		} else {
			res, err = pata.AnalyzeSources(moduleName, c.Sources, pata.Config{})
			if err == nil {
				text = render(res)
			}
			walls = append(walls, time.Since(start).Seconds())
			b.sample("scan_s", walls[len(walls)-1])
		}
		b.sample("alloc_mb", mb(totalAlloc()-a0))
		b.op(fmt.Sprintf("op %d", op), checkOp(b.w.expect, c, res, text, ref, err))
	}

	if b.trace {
		b.setMedians()
		b.set("runtime.gc_cpu_frac", probe.gcFrac())
		b.set("runtime.heap_peak_mb", probe.heapPeakMB())
		b.set("trace.overhead_frac", median(tracedWalls)/median(walls)-1)
		return nil
	}
	b.set("scan_s", median(walls))
	b.set("kloc_per_s", float64(c.Lines)/1000/median(walls))
	b.set("edit_ms_p50", 1000*median(walls))
	b.set("edit_ms_p75", 1000*quantile(walls, 0.75))
	b.set("alloc_mb", median(b.samples["alloc_mb"]))
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	b.set("peak_rss_mb", rss)
	return nil
}

// checkOp checks one analysis: no error, a report byte-identical to the
// reference, and findings that meet the ground-truth expectation.
func checkOp(e expectation, c *oscorpus.Corpus, res *pata.Result, text, ref string, err error) error {
	if err != nil {
		return err
	}
	if text != ref {
		return fmt.Errorf("report differs from the reference report")
	}
	return e.check(c, res.Bugs, len(res.Incomplete))
}

// analyzeTraced runs the steps of pata.AnalyzeSources one layer call at a
// time, each in a span: lowering, the engine with its Stage-2 hooks
// wrapped, result conversion and rendering.
func analyzeTraced(t *opTrace, sources map[string]string) (*pata.Result, string, error) {
	mod, err := t.lower(sources)
	if err != nil {
		return nil, "", err
	}
	ec, err := pata.Config{}.EngineConfig()
	if err != nil {
		return nil, "", err
	}
	res, text := t.engine(mod, ec)
	return res, text, nil
}

// lower runs minicc.LowerAll in a span, noting what it allocates.
func (t *opTrace) lower(sources map[string]string) (*cir.Module, error) {
	var mod *cir.Module
	var err error
	t.timed("minicc.lower", func() {
		if t.rec == nil {
			mod, err = minicc.LowerAll(moduleName, sources)
			return
		}
		a0 := totalAlloc()
		mod, err = minicc.LowerAll(moduleName, sources)
		t.lowerAlloc = totalAlloc() - a0
	})
	return mod, err
}

// engine runs core.RunParallelCtx with ec's hooks and cache wrapped, then
// converts and renders the result, each step in a span.
func (t *opTrace) engine(mod *cir.Module, ec core.Config) (*pata.Result, string) {
	t.instrument(&ec)
	t.coreSpan = t.rec.begin("core.run", t.op, -1)
	res := core.RunParallelCtx(context.Background(), mod, ec, 0)
	t.rec.end(t.coreSpan)
	var pres *pata.Result
	var text string
	t.timed("report.render", func() {
		pres = pata.ConvertResult(res, false)
		text = render(pres)
	})
	return pres, text
}

// layerSamples adds one traced op's per-layer figures to the samples.
func (b *bench) layerSamples(t *opTrace, st *core.Stats, text string, wall time.Duration) {
	spans := b.rec.opSpans(t.op)
	var top int64
	for _, s := range spans {
		if s.Parent == -1 {
			top += s.dur()
		}
	}
	b.sample("trace.gap_frac", frac(float64(wall.Nanoseconds()-top), float64(wall.Nanoseconds())))

	b.sample("minicc.lower_ms", ms(sumByName(spans, "minicc.lower")))
	b.sample("minicc.alloc_mb", mb(t.lowerAlloc))
	b.sample("cir.fingerprint_ms", ms(sumByName(spans, "cir.fingerprint")))
	b.sample("callgraph.build_ms", ms(sumByName(spans, "callgraph.build")))
	b.sample("callgraph.entry_key_ms", ms(sumByName(spans, "callgraph.entry_key")))
	b.sample("callgraph.entries", float64(st.EntryFunctions))

	var self int64
	for _, s := range spans {
		if s.Name == "core.run" {
			self += selfTime(s, childrenOf(spans, s.ID))
		}
	}
	b.sample("core.self_ms", ms(self))
	b.sample("core.steps", float64(st.StepsExecuted))
	b.sample("core.paths", float64(st.PathsExplored))
	b.sample("core.steps_per_ms", frac(float64(st.StepsExecuted), ms(self)))
	b.sample("core.budget_trips", float64(st.Budgeted))
	b.sample("core.work_steals", float64(st.WorkSteals))
	b.sample("core.canon_ms", ms(st.CanonNanos))
	b.sample("core.cursor_ms", ms(st.CursorNanos))
	b.sample("core.prune_hits", float64(st.PrunedBranches))
	b.sample("core.memo_hits", float64(st.MemoHits))
	b.sample("core.summary_hits", float64(st.SummaryHits))
	b.sample("core.adaptive_light_frac", frac(float64(st.AdaptiveEntriesLight), float64(st.EntryFunctions)))

	cands := float64(t.candidates.Load())
	b.sample("pathval.busy_ms", ms(sumByName(spans, "pathval.validate")+sumByName(spans, "pathval.batch")))
	b.sample("pathval.candidates", cands)
	b.sample("pathval.solver_ms", ms(st.SolverNanos))
	b.sample("pathval.cache_hit_frac", frac(float64(st.ValidationCacheHits), float64(st.ValidationCacheHits+st.ValidationCacheMisses)))
	b.sample("pathval.batched_frac", frac(float64(st.BatchedSolves), cands))
	b.sample("pathval.refuted_frac", frac(float64(t.refuted.Load()), cands))

	loads := float64(t.loads.Load())
	b.sample("acache.loads", loads)
	b.sample("acache.load_ms", ms(sumByName(spans, "acache.load")))
	b.sample("acache.load_kb", float64(t.loadBytes.Load())/1024)
	b.sample("acache.hit_frac", frac(float64(t.loadHits.Load()), loads))
	b.sample("acache.saves", float64(t.saves.Load()))
	b.sample("acache.save_ms", ms(sumByName(spans, "acache.save")))

	b.sample("report.render_ms", ms(sumByName(spans, "report.render")))
	b.sample("report.kb", float64(len(text))/1024)
}
