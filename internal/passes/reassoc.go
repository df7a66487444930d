package passes

import (
	"sort"

	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// Reassociate is the LunarGlass default integer reassociation pass:
// integer add/sub trees are flattened into linear combinations, constants
// folded together, and identical terms combined or cancelled
// (a+b-a -> b). It also performs the safe-ish float identity
// simplifications LLVM's reassociate applies ("or some floating-point
// expressions like f × 0", §III-A): x+0 -> x, x*1 -> x, x*0 -> 0.
// Integers are rare in shaders, so — matching the paper §VI-D3 — its main
// visible effect on the corpus is the float identity cleanup.
func Reassociate(p *ir.Program) bool {
	changed := false
	if reassocIntSums(p) {
		changed = true
	}
	if floatIdentities(p) {
		changed = true
	}
	if changed {
		trivialDCE(p)
		p.RenumberIDs()
	}
	return changed
}

// reassocIntSums rewrites scalar-int +/- trees as canonical linear sums.
func reassocIntSums(p *ir.Program) bool {
	changed := false
	uses := p.CountUses(nil)

	var roots []*ir.Instr
	users := soleUsers(p, uses)
	p.Body.WalkInstrs(func(in *ir.Instr) {
		if !isIntAddSub(in) {
			return
		}
		// Roots: not consumed solely by another int add/sub (those are
		// interior nodes of the same tree).
		if u := users[in.ID]; u == nil || !isIntAddSub(u) {
			roots = append(roots, in)
		}
	})

	// Each root's new instructions are queued and spliced once, after
	// the loop; see fpRewriter for why the order is unchanged.
	var inserts []insertion

	for _, root := range roots {
		terms := map[*ir.Instr]int64{}
		var constant int64
		var order []*ir.Instr
		count := 0
		var flatten func(in *ir.Instr, sign int64)
		flatten = func(in *ir.Instr, sign int64) {
			count++
			switch {
			case in.Op == ir.OpConst:
				constant += sign * in.Const.Int(0)
				return
			case isIntAddSub(in) && (in == root || uses.Of(in) == 1):
				flatten(in.Args[0], sign)
				if in.BinOp == "+" {
					flatten(in.Args[1], sign)
				} else {
					flatten(in.Args[1], -sign)
				}
				return
			case in.Op == ir.OpUn && in.UnOp == "-" && in.Type.Equal(sem.Int) && uses.Of(in) == 1:
				flatten(in.Args[0], -sign)
				return
			case in.Op == ir.OpBin && in.BinOp == "*" && in.Type.Equal(sem.Int) &&
				in.Args[1].Op == ir.OpConst && uses.Of(in) == 1:
				flatten(in.Args[0], sign*in.Args[1].Const.Int(0))
				return
			}
			if _, seen := terms[in]; !seen {
				order = append(order, in)
			}
			terms[in] += sign
		}
		flatten(root, 1)
		if count <= 1 || len(order) > 64 {
			continue
		}

		// Rebuild canonically: terms by ascending ID, constant last.
		sort.Slice(order, func(i, j int) bool { return order[i].ID < order[j].ID })
		var emitted []*ir.Instr
		var total *ir.Instr
		add := func(v *ir.Instr, coeff int64) {
			if coeff == 0 {
				return
			}
			term := v
			switch coeff {
			case 1:
			case -1:
				if total == nil {
					neg := p.NewInstr(ir.OpUn, sem.Int, v)
					neg.UnOp = "-"
					emitted = append(emitted, neg)
					term = neg
				} else {
					sub := p.NewInstr(ir.OpBin, sem.Int, total, v)
					sub.BinOp = "-"
					emitted = append(emitted, sub)
					total = sub
					return
				}
			default:
				c := newConst(p, sem.Int, ir.IntConst(abs64(coeff)))
				mul := p.NewInstr(ir.OpBin, sem.Int, v, c)
				mul.BinOp = "*"
				emitted = append(emitted, c, mul)
				term = mul
				if coeff < 0 {
					if total != nil {
						sub := p.NewInstr(ir.OpBin, sem.Int, total, mul)
						sub.BinOp = "-"
						emitted = append(emitted, sub)
						total = sub
						return
					}
					neg := p.NewInstr(ir.OpUn, sem.Int, mul)
					neg.UnOp = "-"
					emitted = append(emitted, neg)
					term = neg
				}
			}
			if total == nil {
				total = term
			} else {
				sum := p.NewInstr(ir.OpBin, sem.Int, total, term)
				sum.BinOp = "+"
				emitted = append(emitted, sum)
				total = sum
			}
		}
		for _, v := range order {
			add(v, terms[v])
		}
		if constant != 0 || total == nil {
			c := newConst(p, sem.Int, ir.IntConst(constant))
			emitted = append(emitted, c)
			if total == nil {
				total = c
			} else {
				sum := p.NewInstr(ir.OpBin, sem.Int, total, c)
				sum.BinOp = "+"
				emitted = append(emitted, sum)
				total = sum
			}
		}
		// Only rewrite when the canonical form is no larger.
		if len(emitted) >= count {
			continue
		}
		if len(emitted) > 0 {
			inserts = append(inserts, insertion{before: root, items: emitted})
		}
		replaceUses(p, root, total)
		changed = true
	}
	splice(p, inserts)
	return changed
}

func isIntAddSub(in *ir.Instr) bool {
	return in.Op == ir.OpBin && (in.BinOp == "+" || in.BinOp == "-") && in.Type.Equal(sem.Int)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// floatIdentities removes x+0, x-0, x*1 and rewrites x*0 to 0.
func floatIdentities(p *ir.Program) bool {
	changed := false
	p.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op != ir.OpBin || in.Type.Kind != sem.KindFloat || in.Type.IsMatrix() {
			return
		}
		if in.Args[0].Type.IsMatrix() || in.Args[1].Type.IsMatrix() {
			return
		}
		x, y := in.Args[0], in.Args[1]
		xc, xok := splatConstOf(x)
		yc, yok := splatConstOf(y)
		switch in.BinOp {
		case "+":
			if yok && yc == 0 {
				replaceUses(p, in, x)
				changed = true
			} else if xok && xc == 0 {
				replaceUses(p, in, y)
				changed = true
			}
		case "-":
			if yok && yc == 0 {
				replaceUses(p, in, x)
				changed = true
			}
		case "*":
			switch {
			case yok && yc == 1:
				replaceUses(p, in, x)
				changed = true
			case xok && xc == 1:
				replaceUses(p, in, y)
				changed = true
			case yok && yc == 0:
				makeConst(in, ir.SplatFloat(0, in.Type.Components()))
				changed = true
			case xok && xc == 0:
				makeConst(in, ir.SplatFloat(0, in.Type.Components()))
				changed = true
			}
		case "/":
			if yok && yc == 1 {
				replaceUses(p, in, x)
				changed = true
			}
		}
	})
	return changed
}
