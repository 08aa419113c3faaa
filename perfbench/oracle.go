package main

import (
	"fmt"
	"sort"
	"strings"

	pata "repro"
	"repro/internal/oscorpus"
	"repro/internal/typestate"
)

// expectation is what the ground-truth oracle accepts for one corpus
// family. The oracle does not consult PATA: it scores the reported
// findings against the generator's seeded bugs and traps with
// oscorpus.Evaluate and compares the score with these committed rules.
type expectation struct {
	// fpMechanisms lists the trap mechanisms a false positive may sit at.
	// Each trap of these mechanisms must produce exactly one false
	// positive; no other report may be false.
	fpMechanisms []string
	// shadowedMisses allows exactly the seeded bugs that sit one line
	// below another seeded bug of the same type in the same file, and
	// only when a report sits at their exact line. Evaluate matches a
	// report to the first seeded bug within one line, so such a report
	// is counted against the bug above it and the lower bug reads as
	// missed although PATA reported it. No other miss is allowed.
	shadowedMisses bool
}

// linuxExpect covers linux-like corpora: every seeded bug is found, and
// the only false positives are PATA's own §5.2 ones, at the array-index
// and nonlinear-guard traps.
var linuxExpect = expectation{fpMechanisms: []string{"array-index", "nonlinear"}}

// validateExpect covers validate-heavy corpora: no false positives, and
// the only misses are the middle rungs of the deep error-path ladders
// (see shadowedMisses). At the spec's own seed and scale 1 these are the
// six IDs pinned in TestValidateHeavyMissesAreShadowedRungs; scaled ×48
// they are 288.
var validateExpect = expectation{shadowedMisses: true}

// toReports converts findings to the scorer's tool-neutral form.
func toReports(bugs []pata.Bug) []oscorpus.Report {
	out := make([]oscorpus.Report, len(bugs))
	for i, b := range bugs {
		out[i] = oscorpus.Report{Tool: "pata", Type: typestate.BugType(b.Type), File: b.File, Line: b.Line}
	}
	return out
}

// shadowed returns the IDs of c's seeded bugs that sit one line below
// another seeded bug of the same type and file.
func shadowed(c *oscorpus.Corpus) map[string]bool {
	type key struct {
		file string
		line int
		bt   typestate.BugType
	}
	at := make(map[key]bool, len(c.Truth))
	for _, g := range c.Truth {
		at[key{g.File, g.Line, g.Type}] = true
	}
	out := make(map[string]bool)
	for _, g := range c.Truth {
		if at[key{g.File, g.Line - 1, g.Type}] {
			out[g.ID] = true
		}
	}
	return out
}

// check scores bugs against c's ground truth and returns an error naming
// every way the score departs from e.
func (e expectation) check(c *oscorpus.Corpus, bugs []pata.Bug, incomplete int) error {
	var errs []string
	if incomplete > 0 {
		errs = append(errs, fmt.Sprintf("%d incomplete entries", incomplete))
	}
	s := oscorpus.Evaluate(c, toReports(bugs))

	allowed := make(map[string]bool)
	for _, m := range e.fpMechanisms {
		allowed[m] = true
	}
	traps := trapsBy(c)
	for _, m := range sortedKeys(s.FPByMechanism) {
		n := s.FPByMechanism[m]
		switch {
		case !allowed[m]:
			errs = append(errs, fmt.Sprintf("%d false positives at %q", n, m))
		case n != traps[m]:
			errs = append(errs, fmt.Sprintf("%d false positives at %q, want %d", n, m, traps[m]))
		}
	}
	for _, m := range e.fpMechanisms {
		if s.FPByMechanism[m] == 0 && traps[m] > 0 {
			errs = append(errs, fmt.Sprintf("0 false positives at %q, want %d", m, traps[m]))
		}
	}

	var want map[string]bool
	if e.shadowedMisses {
		want = shadowed(c)
	}
	reported := make(map[string]bool, len(bugs))
	for _, b := range bugs {
		reported[fmt.Sprintf("%s:%d:%s", b.File, b.Line, b.Type)] = true
	}
	var bad []string
	for _, g := range s.Missed {
		if !want[g.ID] || !reported[fmt.Sprintf("%s:%d:%s", g.File, g.Line, g.Type)] {
			bad = append(bad, g.ID)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		if len(bad) > 8 {
			bad = append(bad[:8], "...")
		}
		errs = append(errs, fmt.Sprintf("%d unexpected misses: %s", len(bad), strings.Join(bad, ", ")))
	}
	if len(s.Missed) != len(want) {
		errs = append(errs, fmt.Sprintf("%d misses, want %d", len(s.Missed), len(want)))
	}
	if len(errs) > 0 {
		return fmt.Errorf("ground truth: %s", strings.Join(errs, "; "))
	}
	return nil
}
