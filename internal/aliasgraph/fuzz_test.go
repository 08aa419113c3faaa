package aliasgraph

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cir"
)

// Operands of fuzzed graph programs: a few registers and globals, two
// constants, and one label of each kind.
var (
	fuzzVals = []cir.Value{
		&cir.Register{ID: 0, Name: "r", Typ: cir.PointerTo(cir.I64)},
		&cir.Register{ID: 1, Name: "r", Typ: cir.PointerTo(cir.I64)},
		&cir.Register{ID: 2, Name: "r", Typ: cir.PointerTo(cir.I64)},
		&cir.Register{ID: 3, Name: "r", Typ: cir.PointerTo(cir.I64)},
		&cir.Global{Name: "g0", Elem: cir.I64},
		&cir.Global{Name: "g1", Elem: cir.I64},
	}
	fuzzConsts = []*cir.Const{cir.NullConst(cir.PointerTo(cir.I64)), cir.IntConst(cir.I64, 1)}
	fuzzLabels = []Label{
		DerefLabel,
		FieldLabel("f"),
		FieldLabel("g"),
		IndexLabel(cir.IntConst(cir.I64, 3), "s#1"),
		IndexLabel(fuzzVals[0], "s#2"),
	}
)

// Mutation kinds of a fuzzed graph program.
const (
	opMove = iota
	opMoveConst
	opStore
	opStoreConst
	opLoad
	opGEP
	opDetach
	opTarget
)

// fuzzKinds maps instruction bytes 0–10 onto the mutations, weighting the
// update rules of Figure 5 double; bytes 11–15 are checkpoint, rollback and
// reset.
var fuzzKinds = [11]byte{opMove, opMove, opMoveConst, opStore, opStoreConst,
	opLoad, opLoad, opGEP, opGEP, opDetach, opTarget}

// graphOp is one mutation: a kind, two operand selectors and a label
// selector (the second operand picks the constant for the const kinds).
type graphOp struct{ kind, a, b, l byte }

func (op graphOp) apply(g *Graph) {
	a := fuzzVals[int(op.a)%len(fuzzVals)]
	b := fuzzVals[int(op.b)%len(fuzzVals)]
	c := fuzzConsts[int(op.b)%len(fuzzConsts)]
	l := fuzzLabels[int(op.l)%len(fuzzLabels)]
	switch op.kind {
	case opMove:
		g.Move(a, b)
	case opMoveConst:
		g.MoveConst(a, c)
	case opStore:
		g.Store(a, b)
	case opStoreConst:
		g.Store(a, c)
	case opLoad:
		g.Load(a, b)
	case opGEP:
		g.GEP(a, b, l)
	case opDetach:
		g.Detach(a)
	case opTarget:
		g.Target(a, l)
	}
}

// checkAgainstReplay compares g with the oracle: a fresh graph that applies
// only ops, the mutations that survived every rollback and reset. A fresh
// graph never rolls back or recycles a node, so any state a rollback or a
// recycled node leaks shows up as a difference.
func checkAgainstReplay(t *testing.T, g *Graph, ops []graphOp, when string) {
	t.Helper()
	want := New()
	for _, op := range ops {
		op.apply(want)
	}
	if got, exp := g.String(), want.String(); got != exp {
		t.Fatalf("%s: graph\n%s\nreplay of %v\n%s", when, got, ops, exp)
	}
	if got, exp := g.NumNodes(), want.NumNodes(); got != exp {
		t.Fatalf("%s: NumNodes = %d, replay has %d", when, got, exp)
	}
	for _, v := range fuzzVals {
		gn, wn := g.Lookup(v), want.Lookup(v)
		if (gn == nil) != (wn == nil) {
			t.Fatalf("%s: Lookup(%s) = %v, replay has %v", when, v, gn, wn)
		}
		if gn == nil {
			continue
		}
		if gn.ID != wn.ID {
			t.Fatalf("%s: %s is in n%d, replay has n%d", when, v, gn.ID, wn.ID)
		}
		if got, exp := g.AccessPaths(gn, 2), want.AccessPaths(wn, 2); !slices.Equal(got, exp) {
			t.Fatalf("%s: AccessPaths(%s) = %v, replay has %v", when, v, got, exp)
		}
		for _, w := range fuzzVals {
			if got, exp := g.SameClass(v, w), want.SameClass(v, w); got != exp {
				t.Fatalf("%s: SameClass(%s, %s) = %v, replay has %v", when, v, w, got, exp)
			}
		}
	}
}

// FuzzGraphRollback runs random graph programs with nested checkpoints,
// rollbacks to any open checkpoint, and resets. Each program byte picks an
// instruction; mutations take three more bytes as operands. After every
// rollback or reset, and at the end, the graph must equal a fresh one that
// replays only the surviving mutations.
func FuzzGraphRollback(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 11, 2, 2, 0, 0, 13, 0})
	f.Add([]byte{11, 4, 0, 1, 0, 5, 1, 0, 0, 11, 7, 2, 0, 1, 8, 2, 0, 1, 13, 1, 13, 0})
	f.Add([]byte{3, 0, 1, 0, 5, 2, 0, 0, 15, 3, 1, 2, 0, 10, 1, 0, 3, 11, 9, 1, 0, 0, 14, 0})
	f.Add([]byte{11, 7, 0, 1, 1, 11, 9, 0, 0, 0, 12, 2, 1, 1, 10, 0, 0, 4, 14, 1, 13, 0, 15})
	f.Fuzz(func(t *testing.T, prog []byte) {
		g := New()
		var ops []graphOp
		type mark struct {
			m   Mark
			ops int
		}
		var marks []mark
		for pc := 0; pc < len(prog); {
			in := prog[pc] % 16
			pc++
			switch {
			case int(in) < len(fuzzKinds):
				var arg [3]byte
				pc += copy(arg[:], prog[pc:])
				op := graphOp{kind: fuzzKinds[in], a: arg[0], b: arg[1], l: arg[2]}
				op.apply(g)
				ops = append(ops, op)
			case in < 13:
				marks = append(marks, mark{g.Checkpoint(), len(ops)})
			case in < 15:
				if len(marks) == 0 {
					continue
				}
				// Roll back to any open checkpoint, dropping the ones
				// nested inside it.
				k := 0
				if pc < len(prog) {
					k = int(prog[pc]) % len(marks)
					pc++
				}
				g.Rollback(marks[k].m)
				ops = ops[:marks[k].ops]
				marks = marks[:k]
				checkAgainstReplay(t, g, ops, fmt.Sprintf("rollback at byte %d", pc))
			default:
				g.Reset()
				ops, marks = nil, nil
				checkAgainstReplay(t, g, ops, fmt.Sprintf("reset at byte %d", pc))
			}
		}
		checkAgainstReplay(t, g, ops, "end of program")
	})
}
