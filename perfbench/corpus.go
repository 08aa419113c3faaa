package main

import (
	"fmt"
	"runtime"
	"sort"

	"repro/internal/oscorpus"
	"repro/internal/typestate"
)

// scaleSpec multiplies every per-category count of spec by factor: files,
// filler, helper clusters, validation clusters, bugs and traps. It exists
// because oscorpus.Scaled copies only files, filler, bugs and traps, so a
// spec scaled upstream silently loses its helper and validation clusters.
// The spec seed is left alone; withSeed picks it.
func scaleSpec(spec oscorpus.OSSpec, factor int) oscorpus.OSSpec {
	out := spec
	out.Cats = make([]oscorpus.CatSpec, len(spec.Cats))
	for i, cat := range spec.Cats {
		nc := cat
		nc.Files *= factor
		nc.Filler *= factor
		nc.Helpers *= factor
		nc.Validation *= factor
		nc.Bugs = make(map[typestate.BugType]int, len(cat.Bugs))
		for k, v := range cat.Bugs {
			nc.Bugs[k] = v * factor
		}
		nc.Traps = make(map[string]int, len(cat.Traps))
		for k, v := range cat.Traps {
			nc.Traps[k] = v * factor
		}
		out.Cats[i] = nc
	}
	return out
}

// withSeed offsets the generator seed by the benchmark seed, so every
// benchmark seed yields a different corpus of the same shape and size.
func withSeed(spec oscorpus.OSSpec, seed int64) oscorpus.OSSpec {
	spec.Seed += seed
	return spec
}

// linuxScanSpec is linux-like ×12 with two helper-heavy clusters folded
// into drivers before scaling (24 after).
func linuxScanSpec() oscorpus.OSSpec {
	spec := oscorpus.LinuxSpec()
	spec.Cats[0].Helpers = 2
	return scaleSpec(spec, 12)
}

// validateScanSpec is validate-heavy ×48.
func validateScanSpec() oscorpus.OSSpec {
	return scaleSpec(oscorpus.ValidationHeavySpec(), 48)
}

// editLoopSpec is linux-like ×4.
func editLoopSpec() oscorpus.OSSpec {
	return scaleSpec(oscorpus.LinuxSpec(), 4)
}

// envelope records the machine and the inputs a result was measured on.
type envelope struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	SpecSeed   int64  `json:"spec_seed"`
	Corpus     string `json:"corpus"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Files      int    `json:"files"`
	Lines      int    `json:"lines"`
	Entries    int    `json:"entries"`
	Truth      int    `json:"ground_truth_bugs"`
	Traps      int    `json:"traps"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func newEnvelope(w *workload, seed int64, c *oscorpus.Corpus, entries, seconds int, trace bool) envelope {
	return envelope{
		Workload:   w.name,
		Seed:       seed,
		SpecSeed:   c.Spec.Seed,
		Corpus:     fmt.Sprintf("%s (%s)", c.Spec.Name, w.shape),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Files:      c.Files(),
		Lines:      c.Lines,
		Entries:    entries,
		Truth:      len(c.Truth),
		Traps:      len(c.Traps),
		Seconds:    seconds,
		Trace:      trace,
	}
}

// trapsBy counts c's traps per mechanism.
func trapsBy(c *oscorpus.Corpus) map[string]int {
	m := make(map[string]int)
	for _, t := range c.Traps {
		m[t.Mechanism]++
	}
	return m
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
