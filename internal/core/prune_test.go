package core_test

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/pathval"
	"repro/internal/report"
	"repro/internal/typestate"
)

// bugReport renders the full post-validation bug report of one run.
func bugReport(res *core.Result) string {
	var sb strings.Builder
	report.WriteBugs(&sb, res.Bugs)
	return sb.String()
}

// pruneConfig is the shipped engine configuration with Stage-2 validation
// installed; perCandidate turns off the batched smt.Cursor screen so every
// candidate goes through its own full solve.
func pruneConfig(checkers []typestate.Checker, perCandidate bool) core.Config {
	cfg := core.Config{Checkers: checkers, NoBatchValidate: perCandidate}
	pathval.New().Install(&cfg)
	return cfg
}

// TestPruningEquivalence locks in where infeasible paths are pruned. Stage 1
// is a plain DFS that does no feasibility pruning of its own, so Stage 2 is
// the only place infeasible candidates are discarded: the batched screen
// refutes same-entry candidates that share an unsatisfiable prefix on one
// incremental smt.Cursor, and the per-candidate solver decides the rest.
// Across every corpus and checker set, the batch-screened engine must produce
// a byte-identical post-validation bug report to the engine that solves each
// candidate on its own, and both must prune the same candidates.
func TestPruningEquivalence(t *testing.T) {
	checkerSets := []struct {
		name string
		mk   func() []typestate.Checker
	}{
		{"core", typestate.CoreCheckers},
		{"all", typestate.AllCheckers},
	}
	// The validation-heavy corpus is where same-entry candidates share dead
	// prefixes, so it is the one that engages the batch screen.
	specs := append(oscorpus.AllSpecs(), oscorpus.ValidationHeavySpec())
	var dropped, screened int64
	for _, spec := range specs {
		c := oscorpus.Generate(spec)
		mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
		if err != nil {
			t.Fatal(err)
		}
		for _, cs := range checkerSets {
			t.Run(spec.Name+"/"+cs.name, func(t *testing.T) {
				batched := core.NewEngine(mod, pruneConfig(cs.mk(), false)).Run()
				single := core.NewEngine(mod, pruneConfig(cs.mk(), true)).Run()
				if got, want := bugReport(batched), bugReport(single); got != want {
					t.Errorf("bug reports differ:\n--- batched screen\n%s\n--- per-candidate\n%s", got, want)
				}
				if batched.Stats.FalseDropped != single.Stats.FalseDropped {
					t.Errorf("pruned candidates differ: batched %d, per-candidate %d",
						batched.Stats.FalseDropped, single.Stats.FalseDropped)
				}
				if single.Stats.BatchedSolves != 0 {
					t.Errorf("per-candidate run answered %d verdicts from a batch", single.Stats.BatchedSolves)
				}
				if batched.Stats.PrunedBranches != 0 || batched.Stats.MemoHits != 0 {
					t.Errorf("Stage 1 reported pruning counters: %+v", batched.Stats)
				}
				dropped += batched.Stats.FalseDropped
				screened += batched.Stats.BatchedSolves
			})
		}
	}
	if dropped == 0 {
		t.Errorf("Stage 2 pruned no infeasible candidate across the corpora")
	}
	if screened == 0 {
		t.Errorf("the batch screen answered no verdict across the corpora")
	}
	t.Logf("Stage 2 pruned %d infeasible candidates; %d verdicts came from the batch screen", dropped, screened)
}

// TestPruningEquivalenceParallel repeats the equivalence check through the
// pipelined scheduler on the validation-heavy corpus: with the batch screen
// on, it must prune exactly the candidates the sequential per-candidate
// engine prunes.
func TestPruningEquivalenceParallel(t *testing.T) {
	c := oscorpus.Generate(oscorpus.ValidationHeavySpec())
	mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
	if err != nil {
		t.Fatal(err)
	}
	par := pruneConfig(typestate.AllCheckers(), false)
	par.ValidateWorkers = 2
	seq := core.NewEngine(mod, pruneConfig(typestate.AllCheckers(), true)).Run()
	pres := core.RunParallel(mod, par, 4)
	if got, want := bugReport(pres), bugReport(seq); got != want {
		t.Errorf("parallel report differs:\n--- sequential per-candidate\n%s\n--- parallel batched\n%s", want, got)
	}
	if pres.Stats.FalseDropped != seq.Stats.FalseDropped || pres.Stats.PossibleBugs != seq.Stats.PossibleBugs {
		t.Errorf("pruning counters differ: sequential dropped %d of %d, parallel dropped %d of %d",
			seq.Stats.FalseDropped, seq.Stats.PossibleBugs, pres.Stats.FalseDropped, pres.Stats.PossibleBugs)
	}
	if pres.Stats.BatchedSolves == 0 {
		t.Errorf("the parallel run answered no verdict from the batch screen")
	}
}
