package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	pata "repro"
	"repro/internal/callgraph"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/patad"
)

// TestScaledSpecCounts pins the shape of every workload corpus: cluster
// counts, seeded bugs and traps, files, lines and entry functions. The
// scaler must multiply helper and validation clusters along with the rest.
func TestScaledSpecCounts(t *testing.T) {
	cases := []struct {
		name                          string
		spec                          oscorpus.OSSpec
		helpers, validation           int
		files, lines, truth, traps    int
		entries                       int
		arrayIndex, nonlinear, shadow int
	}{
		{"scan-linux", linuxScanSpec(), 24, 0, 240, 51907, 552, 648, 4284, 96, 96, 0},
		{"scan-validate", validateScanSpec(), 0, 1152, 144, 30903, 1344, 3312, 1872, 0, 0, 288},
		{"edit-loop", editLoopSpec(), 0, 0, 80, 16834, 184, 216, 1420, 32, 32, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var helpers, validation int
			for _, cat := range tc.spec.Cats {
				helpers += cat.Helpers
				validation += cat.Validation
			}
			if helpers != tc.helpers || validation != tc.validation {
				t.Errorf("clusters: %d helper, %d validation; want %d, %d", helpers, validation, tc.helpers, tc.validation)
			}
			c := oscorpus.Generate(tc.spec)
			if c.Files() != tc.files || c.Lines != tc.lines || len(c.Truth) != tc.truth || len(c.Traps) != tc.traps {
				t.Errorf("corpus: %d files, %d lines, %d bugs, %d traps; want %d, %d, %d, %d",
					c.Files(), c.Lines, len(c.Truth), len(c.Traps), tc.files, tc.lines, tc.truth, tc.traps)
			}
			traps := trapsBy(c)
			if traps["array-index"] != tc.arrayIndex || traps["nonlinear"] != tc.nonlinear {
				t.Errorf("traps: %d array-index, %d nonlinear; want %d, %d",
					traps["array-index"], traps["nonlinear"], tc.arrayIndex, tc.nonlinear)
			}
			if n := len(shadowed(c)); n != tc.shadow {
				t.Errorf("%d shadowed seeded bugs, want %d", n, tc.shadow)
			}
			mod, err := minicc.LowerAll(moduleName, c.Sources)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(callgraph.Build(mod).EntryFunctions()); n != tc.entries {
				t.Errorf("%d entry functions, want %d", n, tc.entries)
			}
		})
	}
}

// TestValidateHeavyMissesAreShadowedRungs pins the misses the oracle
// accepts on validate-heavy at its own seed and scale 1: the middle rung
// of each of the six deep error-path ladders. PATA reports every one of
// them; the scorer counts each report against the rung one line above.
func TestValidateHeavyMissesAreShadowedRungs(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ValidationHeavySpec())
	res, err := pata.AnalyzeSources(moduleName, c.Sources, pata.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := oscorpus.Evaluate(c, toReports(res.Bugs))
	var missed []string
	for _, g := range s.Missed {
		missed = append(missed, g.ID)
	}
	want := []string{
		"validate_heavy-NPD-11", "validate_heavy-NPD-14", "validate_heavy-NPD-2",
		"validate_heavy-NPD-21", "validate_heavy-NPD-26", "validate_heavy-NPD-7",
	}
	if !slices.Equal(missed, want) {
		t.Errorf("missed %v, want %v", missed, want)
	}
	sh := shadowed(c)
	for _, id := range want {
		if !sh[id] {
			t.Errorf("%s is not one line below another seeded bug", id)
		}
	}
	if err := validateExpect.check(c, res.Bugs, len(res.Incomplete)); err != nil {
		t.Error(err)
	}
}

// TestOracleRejectsWrongFindings checks that the oracle is not vacuous: a
// dropped seeded bug and an extra report each fail it.
func TestOracleRejectsWrongFindings(t *testing.T) {
	c := oscorpus.Generate(oscorpus.LinuxSpec())
	res, err := pata.AnalyzeSources(moduleName, c.Sources, pata.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := linuxExpect.check(c, res.Bugs, 0); err != nil {
		t.Fatalf("shipped findings fail the oracle: %v", err)
	}
	truth := c.TruthAt()
	for i, b := range res.Bugs {
		if _, real := truth[fmt.Sprintf("%s:%d:%s", b.File, b.Line, b.Type)]; !real {
			continue
		}
		dropped := append(append([]pata.Bug(nil), res.Bugs[:i]...), res.Bugs[i+1:]...)
		if err := linuxExpect.check(c, dropped, 0); err == nil {
			t.Errorf("dropping %s:%d passes the oracle", b.File, b.Line)
		}
		break
	}
	extra := append([]pata.Bug{{Type: "NPD", File: "net/net_00.c", Line: 1}}, res.Bugs...)
	if err := linuxExpect.check(c, extra, 0); err == nil {
		t.Error("an extra false positive passes the oracle")
	}
	if err := linuxExpect.check(c, res.Bugs, 1); err == nil {
		t.Error("an incomplete entry passes the oracle")
	}
}

// TestSelfTimeOverlappingChildren checks the self-time arithmetic when
// child spans from concurrent goroutines overlap each other and stick out
// of the parent.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{Name: "core.run", ID: 0, Parent: -1, Start: 100, End: 200}
	children := []span{
		{Start: 110, End: 130}, // worker 1
		{Start: 120, End: 140}, // worker 2, overlaps worker 1
		{Start: 125, End: 128}, // inside both
		{Start: 150, End: 160},
		{Start: 160, End: 170}, // touches the previous one
		{Start: 190, End: 230}, // ends after the parent
		{Start: 50, End: 105},  // starts before the parent
		{Start: 300, End: 400}, // outside the parent
	}
	// Covered: [100,105) + [110,140) + [150,170) + [190,200) = 5+30+20+10.
	if got := unionLen(children, parent.Start, parent.End); got != 65 {
		t.Errorf("union = %d, want 65", got)
	}
	if got := selfTime(parent, children); got != 35 {
		t.Errorf("self = %d, want 35", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self without children = %d, want 100", got)
	}
}

// TestRecorderConcurrentSpans records child spans from several goroutines
// at once under one parent and checks that the self time plus the union
// of the children equals the parent's duration.
func TestRecorderConcurrentSpans(t *testing.T) {
	rec := newRecorder()
	parent := rec.begin("core.run", 7, -1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := rec.begin("pathval.validate", 7, parent)
				time.Sleep(10 * time.Microsecond)
				rec.end(id)
			}
		}()
	}
	wg.Wait()
	rec.end(parent)
	rec.end(rec.begin("report.render", 7, -1))
	spans := rec.opSpans(7)
	if len(spans) != 202 {
		t.Fatalf("%d spans, want 202", len(spans))
	}
	p := spans[0]
	kids := childrenOf(spans, p.ID)
	if len(kids) != 200 {
		t.Fatalf("%d children, want 200", len(kids))
	}
	covered := unionLen(kids, p.Start, p.End)
	if sum := sumByName(spans, "pathval.validate"); covered > sum || covered <= 0 {
		t.Errorf("union %d outside (0, sum of children %d]", covered, sum)
	}
	if self := selfTime(p, kids); self < 0 || self+covered != p.dur() {
		t.Errorf("self %d + covered %d != parent %d", self, covered, p.dur())
	}
}

// TestEditGenRevertsPreviousEdit checks that each edit's invalidate
// payload carries the new edit and the revert of the previous one.
func TestEditGenRevertsPreviousEdit(t *testing.T) {
	base := oscorpus.Generate(oscorpus.LinuxSpec()).Sources
	g := newEditGen(base, 3)
	_, first := g.next()
	prevState := g.cur
	files, changed := g.next()
	for f, src := range files {
		if src != g.cur[f] {
			t.Errorf("%s: payload is not the new state", f)
		}
	}
	for f, src := range g.cur {
		if _, sent := files[f]; !sent && prevState[f] != src {
			t.Errorf("%s changed but was not sent", f)
		}
	}
	want := append(append([]string(nil), first...), g.curNames...)
	sort.Strings(want)
	want = slices.Compact(want)
	if !slices.Equal(changed, want) {
		t.Errorf("changed %v, want %v", changed, want)
	}
	if n := len(g.curNames); n < 1 || n > 4 {
		t.Errorf("edit touches %d functions, want 1-4", n)
	}
}

// TestMetricsMatchBenchmarkJSON checks that the metrics the benchmark
// prints are exactly those BENCHMARK.json declares, with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, declared []struct{ Name, Unit string }, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: %d declared, %d printed", what, len(declared), len(printed))
			return
		}
		for i, d := range declared {
			if d.Name != printed[i].name || d.Unit != printed[i].unit {
				t.Errorf("%s %d: declared %s (%s), printed %s (%s)", what, i, d.Name, d.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: declared %s, implemented %s", i, w.Name, workloads[i].name)
		}
	}
}

// TestTracedPathsMatchLibrary runs the traced scan op and the traced
// edit replay on linux-like ×1 and checks them against the untraced
// library path and a live patad: identical reports and frontiers, and
// every hook and cache span filed under its op's core span. Under -race
// it also exercises the wrappers the concurrent workers call.
func TestTracedPathsMatchLibrary(t *testing.T) {
	c := oscorpus.Generate(oscorpus.LinuxSpec())
	want, err := pata.AnalyzeSources(moduleName, c.Sources, pata.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	tr := &opTrace{rec: rec, op: 0}
	res, text, err := analyzeTraced(tr, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	if text != render(want) {
		t.Fatal("traced scan report differs from pata.AnalyzeSources")
	}
	if tr.candidates.Load() == 0 || res.Stats.EntryFunctions != want.Stats.EntryFunctions {
		t.Errorf("traced scan saw %d candidates over %d entries", tr.candidates.Load(), res.Stats.EntryFunctions)
	}

	d, err := startDaemon(c.Sources, t.TempDir(), os.Stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	if _, _, err := d.call(patad.Request{Op: patad.OpAnalyze}); err != nil {
		t.Fatal(err)
	}
	lib, err := newLibrary(c.Sources, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	gen := newEditGen(c.Sources, 5)
	for step := 1; step <= 3; step++ {
		files, changed := gen.next()
		inv, _, err := d.call(patad.Request{Op: patad.OpInvalidate, Sources: files})
		if err := checkInvalidate(inv, changed, err); err != nil {
			t.Fatal(err)
		}
		an, _, err := d.call(patad.Request{Op: patad.OpAnalyze})
		if err := checkAnalyze(linuxExpect, c, an, render(want), err); err != nil {
			t.Fatal(err)
		}
		tr := &opTrace{rec: rec, op: step}
		frontier, _, text, err := lib.apply(tr, files)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(frontier, inv.Frontier) || text != an.Report {
			t.Fatalf("edit %d: library replay differs from patad (frontier %v vs %v)", step, frontier, inv.Frontier)
		}
		if tr.loadHits.Load() == 0 || tr.saves.Load() == 0 {
			t.Errorf("edit %d: %d cache hits, %d saves", step, tr.loadHits.Load(), tr.saves.Load())
		}
	}

	for op := 0; op <= 3; op++ {
		spans := rec.opSpans(op)
		core := -1
		for _, s := range spans {
			if s.Name == "core.run" {
				core = s.ID
			}
		}
		for _, s := range spans {
			hook := strings.HasPrefix(s.Name, "pathval.") || strings.HasPrefix(s.Name, "acache.")
			if hook != (s.Parent == core) || s.End < s.Start {
				t.Errorf("op %d: span %s has parent %d, core span %d", op, s.Name, s.Parent, core)
			}
		}
	}
}
