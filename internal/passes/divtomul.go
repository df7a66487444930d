package passes

import (
	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// DivToMul changes float division by constant operands into multiplication
// by the operand's inverse, "which could be determined at compile time"
// (§III-B). The reciprocal is rounded to float64, so results can differ in
// the last bits — an unsafe transform no conformant driver may perform,
// which is exactly why it lives in the offline optimizer.
func DivToMul(p *ir.Program) bool {
	var inserts []insertion
	p.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op != ir.OpBin || in.Sym != "/" || in.Type.Kind != sem.KindFloat {
			return
		}
		den := in.Args[1]
		if den.Op != ir.OpConst {
			return
		}
		for i := range den.Const.F {
			if den.Const.F[i] == 0 {
				return // keep the division (and its inf) intact
			}
		}
		inv := make([]float64, len(den.Const.F))
		for i, v := range den.Const.F {
			inv[i] = 1 / v
		}
		c := newConst(p, den.Type, &ir.ConstVal{Kind: sem.KindFloat, F: inv})
		inserts = append(inserts, insertion{before: in, items: []*ir.Instr{c}})
		in.Sym = "*"
		in.Args[1] = c
	})
	if len(inserts) == 0 {
		return false
	}
	splice(p, inserts)
	p.RenumberIDs()
	return true
}
