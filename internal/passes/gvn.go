package passes

import (
	"shaderopt/internal/ir"
)

// GVN performs global value numbering over the structured region tree:
// pure instructions are merged with any equivalent instruction defined in
// an enclosing (dominating) scope, extending the always-on per-block CSE
// across conditional arms and loop bodies. As in the paper, it "applies
// mainly to the few more complex shaders" — straight-line duplicates are
// already gone by the time GVN runs (§VI-D2).
//
// Merges are recorded in a forwarding table and resolved as the walk
// reaches each use (see Canonicalize), then applied to the whole program
// in one final walk.
func GVN(p *ir.Program) bool {
	s := getRewriter()
	defer putRewriter(s)
	changed := false
	// s.scopes[d] is the table of the block being walked at depth d; the
	// enclosing scopes are exactly s.scopes[:d], and a sibling block
	// resets and reuses its predecessor's table.
	var walk func(b *ir.Block, depth int)
	walk = func(b *ir.Block, depth int) {
		if depth == len(s.scopes) {
			s.scopes = append(s.scopes, newValueTable(0))
		}
		cur := s.scopes[depth]
		cur.reset()
		for _, it := range b.Items {
			switch it := it.(type) {
			case *ir.Instr:
				if !it.IsPure() || !it.HasResult() {
					continue
				}
				s.resolveArgs(it)
				h := valueHash(it)
				if prev := lookupScopes(s.scopes[:depth+1], it, h); prev != nil {
					s.replace(it, prev)
					changed = true
					continue
				}
				cur.add(it, h)
			case *ir.If:
				walk(it.Then, depth+1)
				if it.Else != nil {
					walk(it.Else, depth+1)
				}
			case *ir.Loop:
				walk(it.Body, depth+1)
			case *ir.While:
				walk(it.Cond, depth+1)
				walk(it.Body, depth+1)
			}
		}
	}
	walk(p.Body, 0)
	s.flush(p)
	if changed {
		s.dce(p)
		p.RenumberIDs()
	}
	return changed
}

// lookupScopes finds in's value in the innermost scope that has it.
func lookupScopes(scopes []*valueTable, in *ir.Instr, h uint64) *ir.Instr {
	for d := len(scopes) - 1; d >= 0; d-- {
		if prev := scopes[d].find(in, h); prev != nil {
			return prev
		}
	}
	return nil
}
