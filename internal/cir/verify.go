package cir

import (
	"errors"
	"fmt"
)

// Verify checks structural well-formedness of the module:
//
//   - every block ends in exactly one terminator;
//   - every register is defined exactly once;
//   - instruction destinations point back at their defining instruction;
//   - branch targets belong to the same function;
//   - operands with pointer-sensitive roles have pointer types.
//
// It returns all violations joined into one error, or nil.
func Verify(m *Module) error {
	var errs []error
	var defs defTable
	for _, fn := range m.SortedFuncs() {
		if fn.IsDecl() {
			continue
		}
		defs.reset()
		for _, p := range fn.Params {
			defs.define(p)
		}
		for _, blk := range fn.Blocks {
			if len(blk.Instrs) == 0 {
				errs = append(errs, fmt.Errorf("%s/%s: empty block", fn.Name, blk.Name))
				continue
			}
			for idx, in := range blk.Instrs {
				isLast := idx == len(blk.Instrs)-1
				if IsTerminator(in) != isLast {
					errs = append(errs, fmt.Errorf("%s/%s: instruction %d (%s): terminator placement", fn.Name, blk.Name, idx, in))
				}
				if d := in.Dest(); d != nil {
					if defs.defined(d) {
						errs = append(errs, fmt.Errorf("%s: register %s defined more than once", fn.Name, d))
					}
					defs.define(d)
					if d.Def != in {
						errs = append(errs, fmt.Errorf("%s: register %s Def link broken at %s", fn.Name, d, in))
					}
				}
				switch t := in.(type) {
				case *Load:
					if !IsPointer(t.Addr.Type()) {
						errs = append(errs, fmt.Errorf("%s: load from non-pointer %s", fn.Name, t.Addr))
					}
				case *Store:
					if !IsPointer(t.Addr.Type()) {
						errs = append(errs, fmt.Errorf("%s: store to non-pointer %s", fn.Name, t.Addr))
					}
				case *FieldAddr:
					if !IsPointer(t.Base.Type()) {
						errs = append(errs, fmt.Errorf("%s: fieldaddr on non-pointer %s", fn.Name, t.Base))
					}
				case *IndexAddr:
					if !IsPointer(t.Base.Type()) {
						errs = append(errs, fmt.Errorf("%s: indexaddr on non-pointer %s", fn.Name, t.Base))
					}
				case *Br:
					if t.Target.Fn != fn {
						errs = append(errs, fmt.Errorf("%s: branch to foreign block %s", fn.Name, t.Target.Name))
					}
				case *CondBr:
					if t.True.Fn != fn || t.False.Fn != fn {
						errs = append(errs, fmt.Errorf("%s: condbr to foreign block", fn.Name))
					}
				}
			}
		}
		// Check that every used register has a definition.
		for _, blk := range fn.Blocks {
			for _, in := range blk.Instrs {
				for _, op := range in.Operands() {
					r, ok := op.(*Register)
					if !ok {
						continue
					}
					if !defs.defined(r) {
						errs = append(errs, fmt.Errorf("%s: use of undefined register %s in %s", fn.Name, r, in))
					}
				}
			}
		}
	}
	return errors.Join(errs...)
}

// defTable records the registers one function defines, indexed by
// Register.ID. A register counts as defined only if its own pointer is in its
// slot, so a register of another function with the same ID never passes for
// a defined one. One table serves every function of a module; reset clears
// the slots the last function used.
type defTable struct {
	regs []*Register
	hi   int // one past the highest slot set since reset
}

func (t *defTable) reset() {
	clear(t.regs[:t.hi])
	t.hi = 0
}

// define records r. A negative ID has no slot, so such a register is never
// defined.
func (t *defTable) define(r *Register) {
	if r.ID < 0 {
		return
	}
	if r.ID >= len(t.regs) {
		t.regs = append(t.regs, make([]*Register, r.ID+1-len(t.regs))...)
	}
	t.regs[r.ID] = r
	t.hi = max(t.hi, r.ID+1)
}

func (t *defTable) defined(r *Register) bool {
	return uint(r.ID) < uint(len(t.regs)) && t.regs[r.ID] == r
}
