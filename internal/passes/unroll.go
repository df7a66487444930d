package passes

import (
	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// unrollMaxTrips bounds the trip count of loops the Unroll pass expands.
const unrollMaxTrips = 128

// unrollMaxInstrs bounds the total instructions created by one unroll.
const unrollMaxInstrs = 8192

// Unroll performs "simple loop unrolling for constant loop indices"
// (§III-A): counted loops with static trip counts are fully expanded, the
// counter loads replaced by iteration constants. This is the transform
// behind the motivating example's win, and the source of the "very large
// basic blocks" artefact (§III-C).
func Unroll(p *ir.Program) bool {
	return UnrollWithLimit(p, unrollMaxTrips, unrollMaxInstrs)
}

// UnrollWithLimit unrolls loops up to the given trip-count and
// expanded-size budgets. The vendor driver models use this with their own
// heuristic budgets (e.g. a JIT that only unrolls small bodies).
func UnrollWithLimit(p *ir.Program, maxTrips, maxInstrs int) bool {
	if maxTrips <= 0 {
		return false
	}
	changed := false
	var walk func(b *ir.Block) bool
	walk = func(b *ir.Block) bool {
		local := false
		var out []ir.Item
		for _, it := range b.Items {
			switch item := it.(type) {
			case *ir.Loop:
				// Innermost first so nested constant loops expand fully.
				if walk(item.Body) {
					local = true
				}
				trips, ok := item.TripCount()
				if !ok || trips > maxTrips ||
					trips*item.Body.CountInstrs() > maxInstrs {
					out = append(out, item)
					continue
				}
				start := item.Start.Const.Int(0)
				step := item.Step.Const.Int(0)
				iv := start
				for n := 0; n < trips; n++ {
					clone := p.CloneBlock(item.Body, nil)
					// Replace loads of the counter with this iteration's
					// constant.
					clone.WalkInstrs(func(in *ir.Instr) {
						if in.Op == ir.OpLoad && in.Var == item.Counter {
							makeConst(in, ir.IntConst(iv))
							in.Type = sem.Int
						}
					})
					out = append(out, clone.Items...)
					iv += step
				}
				local = true
			case *ir.If:
				if walk(item.Then) {
					local = true
				}
				if item.Else != nil && walk(item.Else) {
					local = true
				}
				out = append(out, item)
			case *ir.While:
				if walk(item.Body) {
					local = true
				}
				out = append(out, item)
			default:
				out = append(out, it)
			}
		}
		b.Items = out
		return local
	}
	for walk(p.Body) {
		changed = true
	}
	if changed {
		p.RenumberIDs()
	}
	return changed
}
