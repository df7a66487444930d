package passes

import "shaderopt/internal/ir"

// ADCE is aggressive dead code elimination: assume everything dead, mark
// live from the roots (the stores to outputs, every discard and every
// while condition, so a while loop is never removed), then sweep. The
// mark is one backward worklist, linear in the program: a live
// instruction marks its operands, a live load its var, a live var every
// store to it. Control dependence: a live store, discard or while
// condition also marks the conditions of its enclosing ifs, counted
// loops (their bounds) and whiles.
//
// Canonicalization already removes trivially dead instructions and dead
// stores, so this pass "in practice never changes the source output"
// (§VI-D1), the paper's observation; it fires on uncanonicalized IR.
func ADCE(p *ir.Program) bool {
	live := make([]bool, p.MaxID()+1)
	var work []*ir.Instr
	mark := func(in *ir.Instr) {
		if !live[in.ID] {
			live[in.ID] = true
			work = append(work, in)
		}
	}
	// markEffect marks an instruction and the conditions of the regions
	// enclosing it, up to the first region already done.
	regionOf := make([]*region, p.MaxID()+1)
	markEffect := func(in *ir.Instr) {
		mark(in)
		for r := regionOf[in.ID]; r != nil && !r.done; r = r.parent {
			r.done = true
			for _, c := range r.conds {
				mark(c)
			}
		}
	}

	// One walk records each instruction's innermost region (nil at top
	// level; a while's Cond block runs in the region around it), chains
	// each var's stores (lastStore[v], then prevStore[s.ID] back), and
	// marks the discards and while conditions.
	lastStore := map[*ir.Var]*ir.Instr{}
	prevStore := make([]*ir.Instr, p.MaxID()+1)
	var scan func(b *ir.Block, r *region)
	scan = func(b *ir.Block, r *region) {
		for _, it := range b.Items {
			switch it := it.(type) {
			case *ir.Instr:
				regionOf[it.ID] = r
				if it.Op == ir.OpStore {
					prevStore[it.ID], lastStore[it.Var] = lastStore[it.Var], it
				} else if it.Op == ir.OpDiscard {
					markEffect(it)
				}
			case *ir.If:
				in := &region{conds: []*ir.Instr{it.Cond}, parent: r}
				scan(it.Then, in)
				if it.Else != nil {
					scan(it.Else, in)
				}
			case *ir.Loop:
				scan(it.Body, &region{conds: []*ir.Instr{it.Start, it.End, it.Step}, parent: r})
			case *ir.While:
				scan(it.Cond, r)
				markEffect(it.CondVal)
				scan(it.Body, &region{conds: []*ir.Instr{it.CondVal}, parent: r})
			}
		}
	}
	scan(p.Body, nil)

	liveVars := map[*ir.Var]bool{}
	markVar := func(v *ir.Var) {
		if !liveVars[v] {
			liveVars[v] = true
			for s := lastStore[v]; s != nil; s = prevStore[s.ID] {
				markEffect(s)
			}
		}
	}
	for _, out := range p.Outputs {
		markVar(out)
	}
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		for _, a := range in.Args {
			mark(a)
		}
		if in.Op == ir.OpLoad {
			markVar(in.Var)
		}
	}

	// Sweep: remove non-live instructions; drop empty if and counted-loop
	// regions.
	changed := false
	var sweep func(b *ir.Block)
	sweep = func(b *ir.Block) {
		var out []ir.Item
		for _, it := range b.Items {
			switch it := it.(type) {
			case *ir.Instr:
				if !live[it.ID] {
					changed = true
					continue
				}
				out = append(out, it)
			case *ir.If:
				sweep(it.Then)
				if it.Else != nil {
					sweep(it.Else)
				}
				if len(it.Then.Items) == 0 && (it.Else == nil || len(it.Else.Items) == 0) {
					changed = true
					continue
				}
				out = append(out, it)
			case *ir.Loop:
				sweep(it.Body)
				if len(it.Body.Items) == 0 {
					changed = true
					continue
				}
				out = append(out, it)
			case *ir.While:
				sweep(it.Cond)
				sweep(it.Body)
				out = append(out, it)
			}
		}
		b.Items = out
	}
	sweep(p.Body)
	if changed {
		p.RenumberIDs()
	}
	return changed
}

// region is an if, counted loop or while body: the conditions its
// instructions are control dependent on, and the region around it. done
// means its conditions and every enclosing region's are marked.
type region struct {
	conds  []*ir.Instr
	parent *region
	done   bool
}
