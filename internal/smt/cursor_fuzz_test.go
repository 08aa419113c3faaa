package smt

import "testing"

// fuzzAtom is one generated constraint in evaluable form: sum(coef[i]*x_i)
// pred k over the fuzz run's variables.
type fuzzAtom struct {
	coef [3]int64
	pred string
	k    int64
}

func (a fuzzAtom) holds(vals []int64) bool {
	var sum int64
	for i, v := range vals {
		sum += a.coef[i] * v
	}
	return evalPred(a.pred, sum, a.k)
}

// fuzzBox is the brute-force domain: every variable ranges over
// [-fuzzBox, fuzzBox].
const fuzzBox = 6

// bruteModel reports whether some assignment in the box satisfies every atom.
func bruteModel(nv int, atoms []fuzzAtom) bool {
	vals := make([]int64, nv)
	var try func(i int) bool
	try = func(i int) bool {
		if i == nv {
			for _, a := range atoms {
				if !a.holds(vals) {
					return false
				}
			}
			return true
		}
		for v := int64(-fuzzBox); v <= fuzzBox; v++ {
			vals[i] = v
			if try(i + 1) {
				return true
			}
		}
		return false
	}
	return try(0)
}

// fuzzBytes hands out the fuzz input one byte at a time, then zeros.
type fuzzBytes struct{ data []byte }

func (b *fuzzBytes) next() byte {
	if len(b.data) == 0 {
		return 0
	}
	c := b.data[0]
	b.data = b.data[1:]
	return c
}

// FuzzCursorUnsatSound is an independent soundness oracle for Cursor and
// Solver. The input drives a sequence of pushes of var–const, var–var and
// small-coefficient linear atoms over at most three variables, with
// checkpoints and rollbacks in between. After every push, an Unsat from
// either the Cursor or the Solver (run on the live conjunction) must leave
// no model in [-6, 6]ⁿ, and a Cursor Unsat must imply a Solver Unsat.
func FuzzCursorUnsatSound(f *testing.F) {
	f.Add([]byte{2, 0, 0, 0, 3, 0, 0, 1, 3})
	f.Add([]byte{3, 1, 0, 1, 2, 6, 1, 1, 2, 0, 7, 2, 5, 2, 0, 9})
	f.Add([]byte{3, 2, 4, 2, 5, 0, 1, 12, 0, 0, 1, 7, 6, 0, 2, 0, 8})
	f.Add([]byte{1, 6, 0, 0, 2, 6, 0, 5, 9, 7, 0, 3, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &fuzzBytes{data: data}
		nv := int(in.next()%3) + 1
		ctx := NewContext()
		vars := make([]*Var, nv)
		for i := range vars {
			vars[i] = ctx.Var(string(rune('a' + i)))
		}
		cur := NewCursor(ctx)
		preds := []string{"==", "!=", "<", "<=", ">", ">="}
		small := func(b byte, r int) int64 { return int64(b)%int64(2*r+1) - int64(r) }

		var live []fuzzAtom
		var forms []Formula
		type mark struct {
			cm CursorMark
			n  int
		}
		var marks []mark
		for steps := 0; len(in.data) > 0 && steps < 24; steps++ {
			switch op := in.next() % 8; op {
			case 6:
				marks = append(marks, mark{cm: cur.Checkpoint(), n: len(live)})
				continue
			case 7:
				if len(marks) == 0 {
					continue
				}
				m := marks[len(marks)-1]
				marks = marks[:len(marks)-1]
				cur.Rollback(m.cm)
				live, forms = live[:m.n], forms[:m.n]
				continue
			}
			var a fuzzAtom
			var lhs, rhs Term
			a.pred = preds[in.next()%6]
			switch in.next() % 3 {
			case 0: // var–const
				i := int(in.next()) % nv
				a.coef[i], a.k = 1, small(in.next(), 8)
				lhs, rhs = vars[i], Int(a.k)
			case 1: // var–var: x_i pred x_j, i.e. x_i - x_j pred 0
				i, j := int(in.next())%nv, int(in.next())%nv
				a.coef[i]++
				a.coef[j]--
				lhs, rhs = vars[i], vars[j]
			default: // linear: sum(c_i * x_i) pred k, c_i in [-3, 3]
				lhs = Int(0)
				for i := range vars {
					c := small(in.next(), 3)
					a.coef[i] = c
					lhs = Add(lhs, Mul(Int(c), vars[i]))
				}
				a.k = small(in.next(), 8)
				rhs = Int(a.k)
			}
			atom := &Atom{Pred: a.pred, X: lhs, Y: rhs}
			live = append(live, a)
			forms = append(forms, atom)

			cres := cur.Push(atom)
			sres := NewSolver(ctx).Solve(And(forms...))
			if cres == Unsat && sres != Unsat {
				t.Fatalf("cursor Unsat but solver %v on %v", sres, And(forms...))
			}
			if (cres == Unsat || sres == Unsat) && bruteModel(nv, live) {
				t.Fatalf("Unsat (cursor %v, solver %v) but a model exists in [-%d, %d]^%d for %v",
					cres, sres, fuzzBox, fuzzBox, nv, And(forms...))
			}
		}
	})
}
