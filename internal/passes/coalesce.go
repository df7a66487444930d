package passes

import (
	"shaderopt/internal/ir"
)

// Coalesce rewrites chains of individual vector element insertions into a
// single constructor ("change multiple individual vector element
// insertions into a single swizzled vector assignment", §III-A). Chains
// that overwrite every component drop their dependency on the base value;
// partial chains keep the surviving components as extracts of the base.
func Coalesce(p *ir.Program) bool {
	changed := false
	uses := p.CountUses(nil)
	users := soleUsers(p, uses)

	p.Body.WalkBlocks(func(b *ir.Block) {
		for idx := 0; idx < len(b.Items); idx++ {
			in, ok := b.Items[idx].(*ir.Instr)
			if !ok || in.Op != ir.OpInsert || !in.Type.IsVector() {
				continue
			}
			// Only rewrite chain heads: inserts whose value feeds another
			// insert in the chain are interior links.
			if isChainLink(in, users) {
				continue
			}
			// Walk head -> tail; the first write seen per component is the
			// final value.
			comps := make([]*ir.Instr, in.Type.Vec)
			links := 0
			cur := in
			var base *ir.Instr
			for {
				if comps[cur.Index] == nil {
					comps[cur.Index] = cur.Args[1]
				}
				links++
				next := cur.Args[0]
				if next.Op == ir.OpInsert && next.Type.Equal(in.Type) && uses.Of(next) == 1 {
					cur = next
					continue
				}
				base = next
				break
			}
			if links < 2 {
				continue
			}
			args := make([]*ir.Instr, in.Type.Vec)
			var extra []*ir.Instr
			for i := range args {
				if comps[i] != nil {
					args[i] = comps[i]
					continue
				}
				ex := p.NewInstr(ir.OpExtract, in.Type.ScalarOf(), base)
				ex.Index = i
				extra = append(extra, ex)
				args[i] = ex
			}
			ctor := p.NewInstr(ir.OpConstruct, in.Type, args...)
			items := append([]ir.Item{}, b.Items[:idx]...)
			for _, ex := range extra {
				items = append(items, ex)
			}
			items = append(items, ctor)
			items = append(items, b.Items[idx:]...)
			b.Items = items
			replaceUses(p, in, ctor)
			changed = true
			idx += len(extra) + 1 // skip the items we just inserted
		}
	})
	if changed {
		Canonicalize(p)
	}
	return changed
}

// soleUsers returns, indexed by instruction ID, the instruction that uses
// each one as an operand when that is its only use (uses[id] == 1), and
// nil otherwise. uses is p's current use count. Callers look up only
// instructions that existed when the table was built.
func soleUsers(p *ir.Program, uses ir.Uses) []*ir.Instr {
	users := make([]*ir.Instr, len(uses))
	p.Body.WalkInstrs(func(in *ir.Instr) {
		for _, a := range in.Args {
			if uses[a.ID] == 1 {
				users[a.ID] = in
			}
		}
	})
	return users
}

// isChainLink reports whether the insert's only use is a following insert
// that consumes it as the aggregate operand — interior links are handled
// when their chain head is processed.
func isChainLink(in *ir.Instr, users []*ir.Instr) bool {
	u := users[in.ID]
	return u != nil && u.Op == ir.OpInsert && u.Args[0] == in && u.Type.Equal(in.Type)
}
