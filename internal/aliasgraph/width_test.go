package aliasgraph_test

import (
	"fmt"
	"testing"

	"repro/internal/aliasgraph"
	"repro/internal/cir"
	"repro/internal/core"
	"repro/internal/minicc"
	"repro/internal/oscorpus"
	"repro/internal/typestate"
)

// widthHist counts how often each node width (class size or out-edge count)
// was observed.
type widthHist []int64

func (h *widthHist) add(w int) {
	for len(*h) <= w {
		*h = append(*h, 0)
	}
	(*h)[w]++
}

// quantile returns the smallest width w such that at least q of the
// observations are ≤ w.
func (h widthHist) quantile(q float64) int {
	var total, seen int64
	for _, c := range h {
		total += c
	}
	for w, c := range h {
		seen += c
		if float64(seen) >= q*float64(total) {
			return w
		}
	}
	return len(h) - 1
}

func (h widthHist) String() string {
	return fmt.Sprintf("p50 %d  p99 %d  p99.9 %d  max %d", h.quantile(0.5), h.quantile(0.99), h.quantile(0.999), len(h)-1)
}

// TestNodeWidthOnCorpora measures the property the slice-backed alias-graph
// nodes rely on: each abstract object has few distinct out-edge labels, so
// the linear label lookup of Load, Store and GEP beats a map. (Class size
// matters less: removals scan from the end, where Rollback finds the
// variable it removes.) It runs Stage 1 with every checker on each oscorpus
// corpus and, after every traced instruction, records the out-edge count of
// the base node of a Load, Store, FieldAddr or IndexAddr — the length of the
// step's lookup — and the class size and out-edge count of every live node.
//
// Run with -v to print the distributions; DESIGN.md §5 records them. The
// test fails when a corpus gives some object more out-edges than
// maxOutEdges, a quarter of the width at which BenchmarkWideNode/fields
// measured the linear lookup falling behind a map, so that the design is
// re-measured before such a corpus becomes a benchmark input.
func TestNodeWidthOnCorpora(t *testing.T) {
	const maxOutEdges = 16
	specs := append(oscorpus.AllSpecs(), oscorpus.HelperHeavySpec(), oscorpus.ValidationHeavySpec())
	for _, spec := range specs {
		c := oscorpus.Generate(spec)
		mod, err := minicc.LowerAll(c.Spec.Name, c.Sources)
		if err != nil {
			t.Fatal(err)
		}
		var lookup, liveOut, liveVars widthHist
		cfg := core.Config{
			Checkers: typestate.AllCheckers(),
			Trace: func(in cir.Instr, g *aliasgraph.Graph) {
				var base cir.Value
				switch t := in.(type) {
				case *cir.Load:
					base = t.Addr
				case *cir.Store:
					base = t.Addr
				case *cir.FieldAddr:
					base = t.Base
				case *cir.IndexAddr:
					base = t.Base
				}
				if n := g.Lookup(base); base != nil && n != nil {
					lookup.add(aliasgraph.NumOut(n))
				}
				for _, n := range aliasgraph.LiveNodes(g) {
					liveVars.add(n.NumVars())
					liveOut.add(aliasgraph.NumOut(n))
				}
			},
		}
		core.NewEngine(mod, cfg).Run()
		t.Logf("%-14s lookup out-edges: %s", spec.Name, lookup)
		t.Logf("%-14s live out-edges:   %s", spec.Name, liveOut)
		t.Logf("%-14s live class size:  %s", spec.Name, liveVars)
		if w := len(liveOut) - 1; w > maxOutEdges {
			t.Errorf("%s: a node has %d out-edges, above %d; the linear label lookup in aliasgraph.Node assumes few (DESIGN.md §5)", spec.Name, w, maxOutEdges)
		}
	}
}
