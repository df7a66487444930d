package passes

import (
	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// ScalarizeMatrices expands matrix algebra into per-component scalar
// arithmetic — LunarGlass artefact §III-C(a): "instead of 2 lines of
// matrix-vector calculations, tens of lines worth of scalarized
// calculations will be generated". The offline pipeline always applies it
// (LLVM's middle end has no matrix types); vendor drivers do NOT, which is
// why running a shader through the offline optimizer can be a net loss
// even before any optional pass runs.
func ScalarizeMatrices(p *ir.Program) bool {
	changed := false
	for {
		var target *ir.Instr
		p.Body.WalkInstrs(func(in *ir.Instr) {
			if target != nil {
				return
			}
			switch in.Op {
			case ir.OpBin:
				if in.Args[0].Type.IsMatrix() || in.Args[1].Type.IsMatrix() {
					target = in
				}
			case ir.OpUn:
				if in.Type.IsMatrix() {
					target = in
				}
			}
		})
		if target == nil {
			break
		}
		expandMatrixOp(p, target)
		changed = true
	}
	if changed {
		p.RenumberIDs()
	}
	return changed
}

// expandMatrixOp rewrites one matrix instruction into scalar sequences
// inserted before it.
func expandMatrixOp(p *ir.Program, root *ir.Instr) {
	e := &expander{p: p}
	var result *ir.Instr
	if root.Op == ir.OpUn {
		result = e.negate(root.Args[0])
	} else {
		x, y := root.Args[0], root.Args[1]
		xt, yt := x.Type, y.Type
		switch {
		case root.Sym == "*" && xt.IsMatrix() && yt.IsVector():
			result = e.matVec(x, y)
		case root.Sym == "*" && xt.IsVector() && yt.IsMatrix():
			result = e.vecMat(x, y)
		case root.Sym == "*" && xt.IsMatrix() && yt.IsMatrix():
			result = e.matMat(x, y)
		case (root.Sym == "+" || root.Sym == "-") && xt.IsMatrix():
			result = e.colwise(root.Sym, x, y)
		case root.Sym == "*" && xt.IsMatrix() && yt.IsScalar():
			result = e.scale("*", x, y)
		case root.Sym == "/" && xt.IsMatrix() && yt.IsScalar():
			result = e.scale("/", x, y)
		case root.Sym == "*" && xt.IsScalar() && yt.IsMatrix():
			result = e.scale("*", y, x)
		default:
			return // leave unknown forms intact (verifier rejects them anyway)
		}
	}
	insertBefore(p.Body, root, e.emitted...)
	replaceUses(p, root, result)
	// Neutralize the old instruction in place (it may still be referenced
	// as this walk's cursor): a single-operand construct is a plain copy,
	// which canonicalization folds away.
	root.Op = ir.OpConstruct
	root.Args = []*ir.Instr{result}
	root.Sym = ""
}

type expander struct {
	p       *ir.Program
	emitted []*ir.Instr
}

func (e *expander) emit(in *ir.Instr) *ir.Instr {
	e.emitted = append(e.emitted, in)
	return in
}

func (e *expander) extract(agg *ir.Instr, idx int) *ir.Instr {
	var t sem.Type
	switch {
	case agg.Type.IsMatrix():
		t = sem.VecType(sem.KindFloat, agg.Type.Mat)
	case agg.Type.IsVector():
		t = agg.Type.ScalarOf()
	default:
		t = agg.Type
	}
	in := e.p.NewInstr(ir.OpExtract, t, agg)
	in.Index = idx
	return e.emit(in)
}

func (e *expander) bin(op string, t sem.Type, x, y *ir.Instr) *ir.Instr {
	in := e.p.NewInstr(ir.OpBin, t, x, y)
	in.Sym = op
	return e.emit(in)
}

func (e *expander) construct(t sem.Type, args ...*ir.Instr) *ir.Instr {
	return e.emit(e.p.NewInstr(ir.OpConstruct, t, args...))
}

// matVec: out_i = Σ_j m[j][i] * v[j], fully scalar.
func (e *expander) matVec(m, v *ir.Instr) *ir.Instr {
	n := m.Type.Mat
	cols := make([]*ir.Instr, n)
	elems := make([]*ir.Instr, n)
	for j := 0; j < n; j++ {
		cols[j] = e.extract(m, j)
		elems[j] = e.extract(v, j)
	}
	comps := make([]*ir.Instr, n)
	for i := 0; i < n; i++ {
		var sum *ir.Instr
		for j := 0; j < n; j++ {
			prod := e.bin("*", sem.Float, e.extract(cols[j], i), elems[j])
			if sum == nil {
				sum = prod
			} else {
				sum = e.bin("+", sem.Float, sum, prod)
			}
		}
		comps[i] = sum
	}
	return e.construct(sem.VecType(sem.KindFloat, n), comps...)
}

// vecMat: out_j = Σ_i v[i] * m[j][i].
func (e *expander) vecMat(v, m *ir.Instr) *ir.Instr {
	n := m.Type.Mat
	elems := make([]*ir.Instr, n)
	for i := 0; i < n; i++ {
		elems[i] = e.extract(v, i)
	}
	comps := make([]*ir.Instr, n)
	for j := 0; j < n; j++ {
		col := e.extract(m, j)
		var sum *ir.Instr
		for i := 0; i < n; i++ {
			prod := e.bin("*", sem.Float, elems[i], e.extract(col, i))
			if sum == nil {
				sum = prod
			} else {
				sum = e.bin("+", sem.Float, sum, prod)
			}
		}
		comps[j] = sum
	}
	return e.construct(sem.VecType(sem.KindFloat, n), comps...)
}

// matMat: out[j][i] = Σ_k m1[k][i] * m2[j][k].
func (e *expander) matMat(m1, m2 *ir.Instr) *ir.Instr {
	n := m1.Type.Mat
	cols1 := make([]*ir.Instr, n)
	cols2 := make([]*ir.Instr, n)
	for k := 0; k < n; k++ {
		cols1[k] = e.extract(m1, k)
		cols2[k] = e.extract(m2, k)
	}
	outCols := make([]*ir.Instr, n)
	for j := 0; j < n; j++ {
		comps := make([]*ir.Instr, n)
		for i := 0; i < n; i++ {
			var sum *ir.Instr
			for k := 0; k < n; k++ {
				prod := e.bin("*", sem.Float, e.extract(cols1[k], i), e.extract(cols2[j], k))
				if sum == nil {
					sum = prod
				} else {
					sum = e.bin("+", sem.Float, sum, prod)
				}
			}
			comps[i] = sum
		}
		outCols[j] = e.construct(sem.VecType(sem.KindFloat, n), comps...)
	}
	return e.construct(m1.Type, outCols...)
}

// colwise: componentwise matrix add/sub via column vectors.
func (e *expander) colwise(op string, x, y *ir.Instr) *ir.Instr {
	n := x.Type.Mat
	cols := make([]*ir.Instr, n)
	for j := 0; j < n; j++ {
		cols[j] = e.bin(op, sem.VecType(sem.KindFloat, n), e.extract(x, j), e.extract(y, j))
	}
	return e.construct(x.Type, cols...)
}

// scale: matrix × scalar (or ÷) via splatted columns.
func (e *expander) scale(op string, m, s *ir.Instr) *ir.Instr {
	n := m.Type.Mat
	args := make([]*ir.Instr, n)
	for i := range args {
		args[i] = s
	}
	splat := e.construct(sem.VecType(sem.KindFloat, n), args...)
	cols := make([]*ir.Instr, n)
	for j := 0; j < n; j++ {
		cols[j] = e.bin(op, sem.VecType(sem.KindFloat, n), e.extract(m, j), splat)
	}
	return e.construct(m.Type, cols...)
}

// negate: columnwise negation.
func (e *expander) negate(m *ir.Instr) *ir.Instr {
	n := m.Type.Mat
	cols := make([]*ir.Instr, n)
	for j := 0; j < n; j++ {
		neg := e.p.NewInstr(ir.OpUn, sem.VecType(sem.KindFloat, n), e.extract(m, j))
		neg.Sym = "-"
		cols[j] = e.emit(neg)
	}
	return e.construct(m.Type, cols...)
}
