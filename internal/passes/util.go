// Package passes implements the offline optimizer's transformation passes:
// the eight flag-controlled passes the paper evaluates (ADCE, Coalesce,
// GVN, Reassociate, Unroll, Hoist, plus the authors' custom unsafe
// FP-Reassociate and Const-Div-to-Mul) and the always-on canonicalization
// the paper lists as prerequisites (constant folding, common subexpression
// elimination, redundant load/store elimination).
package passes

import (
	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// replaceUses rewrites every operand reference from old to new across the
// whole program, including region headers.
func replaceUses(p *ir.Program, old, new *ir.Instr) {
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		for _, it := range b.Items {
			switch it := it.(type) {
			case *ir.Instr:
				for i, a := range it.Args {
					if a == old {
						it.Args[i] = new
					}
				}
			case *ir.If:
				if it.Cond == old {
					it.Cond = new
				}
				walk(it.Then)
				if it.Else != nil {
					walk(it.Else)
				}
			case *ir.Loop:
				if it.Start == old {
					it.Start = new
				}
				if it.End == old {
					it.End = new
				}
				if it.Step == old {
					it.Step = new
				}
				walk(it.Body)
			case *ir.While:
				walk(it.Cond)
				if it.CondVal == old {
					it.CondVal = new
				}
				walk(it.Body)
			}
		}
	}
	walk(p.Body)
}

// makeConst mutates an instruction in place into an OpConst, preserving its
// identity so existing references stay valid.
func makeConst(in *ir.Instr, c *ir.ConstVal) {
	in.Op = ir.OpConst
	in.Const = c
	in.Args = nil
	in.Sym = ""
	in.Index = 0
	in.Indices = nil
	in.Var = nil
	in.Global = nil
}

// newConst builds a fresh constant instruction (not yet placed in a block).
func newConst(p *ir.Program, t sem.Type, c *ir.ConstVal) *ir.Instr {
	in := p.NewInstr(ir.OpConst, t)
	in.Const = c
	return in
}

// storedVars returns the set of Vars written anywhere inside the block
// tree, including loop counters.
func storedVars(b *ir.Block) map[*ir.Var]bool {
	out := map[*ir.Var]bool{}
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		for _, it := range b.Items {
			switch it := it.(type) {
			case *ir.Instr:
				if it.Op == ir.OpStore {
					out[it.Var] = true
				}
			case *ir.If:
				walk(it.Then)
				if it.Else != nil {
					walk(it.Else)
				}
			case *ir.Loop:
				out[it.Counter] = true
				walk(it.Body)
			case *ir.While:
				walk(it.Cond)
				walk(it.Body)
			}
		}
	}
	walk(b)
	return out
}

// hasDiscard reports whether the block tree contains a discard.
func hasDiscard(b *ir.Block) bool {
	found := false
	b.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpDiscard {
			found = true
		}
	})
	return found
}

// isCommutative reports whether a binary operator commutes.
func isCommutative(op string) bool {
	switch op {
	case "+", "*", "==", "!=", "&&", "||", "^^":
		return true
	}
	return false
}

// splatConstOf returns (value, true) when in is a constant with every
// component equal (covers both scalar constants and splat vectors).
func splatConstOf(in *ir.Instr) (float64, bool) {
	if in.Op != ir.OpConst || in.Const.Kind != sem.KindFloat {
		return 0, false
	}
	if !in.Const.IsSplat() || in.Const.Len() == 0 {
		return 0, false
	}
	return in.Const.F[0], true
}

// splatThrough looks through OpConstruct splats: if in is a construct whose
// operands are all the same scalar instruction, it returns that scalar.
func splatThrough(in *ir.Instr) (*ir.Instr, bool) {
	if in.Op != ir.OpConstruct || !in.Type.IsVector() {
		return nil, false
	}
	first := in.Args[0]
	if !first.Type.IsScalar() {
		return nil, false
	}
	for _, a := range in.Args[1:] {
		if a != first {
			return nil, false
		}
	}
	return first, true
}
