package lower

import (
	"fmt"

	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

func (lw *lowerer) expr(e glsl.Expr) (*ir.Instr, error) {
	switch e := e.(type) {
	case *glsl.IntLitExpr:
		return lw.intConst(e.Value), nil
	case *glsl.FloatLitExpr:
		return lw.floatConst(e.Value), nil
	case *glsl.BoolLitExpr:
		return lw.emitConst(sem.Bool, ir.BoolConst(e.Value)), nil
	case *glsl.IdentExpr:
		return lw.ident(e)
	case *glsl.UnaryExpr:
		return lw.unary(e)
	case *glsl.BinaryExpr:
		x, err := lw.expr(e.X)
		if err != nil {
			return nil, err
		}
		y, err := lw.expr(e.Y)
		if err != nil {
			return nil, err
		}
		return lw.binop(e.Op, x, y, lw.info.TypeOf(e))
	case *glsl.CondExpr:
		return lw.cond(e)
	case *glsl.CallExpr:
		return lw.call(e)
	case *glsl.ArrayCtorExpr:
		return lw.arrayCtor(e)
	case *glsl.IndexExpr:
		return lw.index(e)
	case *glsl.FieldExpr:
		return lw.swizzle(e)
	}
	return nil, fmt.Errorf("unknown expression %T", e)
}

func (lw *lowerer) ident(e *glsl.IdentExpr) (*ir.Instr, error) {
	b, ok := lw.lookup(e.Name)
	if !ok {
		return nil, fmt.Errorf("%s: undefined variable %q", e.Pos, e.Name)
	}
	switch {
	case b.slot != nil:
		return lw.load(b.slot), nil
	case b.value != nil:
		return b.value, nil
	case b.glob != nil:
		op := ir.OpUniform
		if b.kind == glsl.QualIn {
			op = ir.OpInput
		}
		in := lw.emit(op, b.glob.Type)
		in.Global = b.glob
		return in, nil
	}
	return nil, fmt.Errorf("%s: unresolvable name %q", e.Pos, e.Name)
}

func (lw *lowerer) unary(e *glsl.UnaryExpr) (*ir.Instr, error) {
	x, err := lw.expr(e.X)
	if err != nil {
		return nil, err
	}
	in := lw.emit(ir.OpUn, x.Type, x)
	in.Sym = e.Op
	return in, nil
}

// binop lowers a GLSL binary operation, applying splat vectorization.
// Matrix algebra lowers to direct matrix instructions — vendor drivers
// compile those efficiently; the OFFLINE optimizer's scalarization pass
// (artefact §III-C(a)) expands them before codegen.
func (lw *lowerer) binop(op string, x, y *ir.Instr, resType sem.Type) (*ir.Instr, error) {
	xt, yt := x.Type, y.Type

	switch {
	case xt.IsMatrix() || yt.IsMatrix():
		res, err := sem.BinaryResult(op, xt, yt)
		if err != nil {
			return nil, err
		}
		in := lw.emit(ir.OpBin, res, x, y)
		in.Sym = op
		return in, nil
	case xt.IsVector() && yt.IsScalar():
		y = lw.splat(y, xt.Vec)
	case xt.IsScalar() && yt.IsVector():
		x = lw.splat(x, yt.Vec)
	}

	switch op {
	case "+", "-", "*", "/", "%":
		return lw.bin(op, x.Type, x, y), nil
	case "<", ">", "<=", ">=", "==", "!=", "&&", "||", "^^":
		in := lw.emit(ir.OpBin, sem.Bool, x, y)
		in.Sym = op
		return in, nil
	}
	return nil, fmt.Errorf("unknown binary operator %q", op)
}

// cond lowers ?: to a select when both arms are side-effect free, else to
// control flow through a temporary.
func (lw *lowerer) cond(e *glsl.CondExpr) (*ir.Instr, error) {
	c, err := lw.expr(e.Cond)
	if err != nil {
		return nil, err
	}
	if !lw.mayDiscard(e.Then) && !lw.mayDiscard(e.Else) {
		thn, err := lw.expr(e.Then)
		if err != nil {
			return nil, err
		}
		els, err := lw.expr(e.Else)
		if err != nil {
			return nil, err
		}
		return lw.emit(ir.OpSelect, thn.Type, c, thn, els), nil
	}
	// Rare: arm contains a user function that can discard; use real control
	// flow so the discard stays conditional.
	t := lw.info.TypeOf(e)
	tmp := lw.prog.AddVar("ternary", t)
	saved := lw.block
	thenBlk := &ir.Block{}
	lw.block = thenBlk
	thn, err := lw.expr(e.Then)
	if err == nil {
		lw.store(tmp, thn)
	}
	lw.block = saved
	if err != nil {
		return nil, err
	}
	elseBlk := &ir.Block{}
	lw.block = elseBlk
	els, err := lw.expr(e.Else)
	if err == nil {
		lw.store(tmp, els)
	}
	lw.block = saved
	if err != nil {
		return nil, err
	}
	lw.block.Append(&ir.If{Cond: c, Then: thenBlk, Else: elseBlk})
	return lw.load(tmp), nil
}

// mayDiscard reports whether evaluating the expression can execute a
// discard (via a called user function).
func (lw *lowerer) mayDiscard(e glsl.Expr) bool {
	found := false
	var walk func(glsl.Expr)
	walk = func(e glsl.Expr) {
		switch e := e.(type) {
		case *glsl.CallExpr:
			if fn, ok := lw.info.Funcs[e.Callee]; ok && fn.Decl.Body != nil {
				if stmtsDiscard(fn.Decl.Body.Stmts) {
					found = true
				}
			}
			for _, a := range e.Args {
				walk(a)
			}
		case *glsl.BinaryExpr:
			walk(e.X)
			walk(e.Y)
		case *glsl.UnaryExpr:
			walk(e.X)
		case *glsl.CondExpr:
			walk(e.Cond)
			walk(e.Then)
			walk(e.Else)
		case *glsl.IndexExpr:
			walk(e.X)
			walk(e.Index)
		case *glsl.FieldExpr:
			walk(e.X)
		case *glsl.ArrayCtorExpr:
			for _, el := range e.Elems {
				walk(el)
			}
		}
	}
	walk(e)
	return found
}

func stmtsDiscard(list []glsl.Stmt) bool {
	for _, s := range list {
		switch s := s.(type) {
		case *glsl.DiscardStmt:
			return true
		case *glsl.BlockStmt:
			if stmtsDiscard(s.Stmts) {
				return true
			}
		case *glsl.IfStmt:
			if stmtsDiscard(s.Then.Stmts) {
				return true
			}
			if s.Else != nil && stmtsDiscard([]glsl.Stmt{s.Else}) {
				return true
			}
		case *glsl.ForStmt:
			if stmtsDiscard(s.Body.Stmts) {
				return true
			}
		case *glsl.WhileStmt:
			if stmtsDiscard(s.Body.Stmts) {
				return true
			}
		}
	}
	return false
}

func (lw *lowerer) call(e *glsl.CallExpr) (*ir.Instr, error) {
	if sem.IsConstructor(e.Callee) {
		return lw.constructor(e)
	}
	if sem.IsBuiltin(e.Callee) {
		args := make([]*ir.Instr, len(e.Args))
		for i, a := range e.Args {
			v, err := lw.expr(a)
			if err != nil {
				return nil, err
			}
			args[i] = v
		}
		in := lw.emit(ir.OpCall, lw.info.TypeOf(e), args...)
		in.Sym = e.Callee
		return in, nil
	}
	return lw.inlineCall(e)
}

// constructor lowers vecN/matN/scalar constructors to OpConstruct with
// exactly Components() scalar-compatible arguments.
func (lw *lowerer) constructor(e *glsl.CallExpr) (*ir.Instr, error) {
	target := lw.info.TypeOf(e)
	args := make([]*ir.Instr, len(e.Args))
	for i, a := range e.Args {
		v, err := lw.expr(a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}

	// Single scalar: conversion, splat, or diagonal matrix.
	if len(args) == 1 && args[0].Type.IsScalar() {
		s := args[0]
		switch {
		case target.IsScalar():
			if target.Equal(s.Type) {
				return s, nil
			}
			return lw.emit(ir.OpConstruct, target, s), nil
		case target.IsVector():
			if !target.ScalarOf().Equal(s.Type) {
				s = lw.emit(ir.OpConstruct, target.ScalarOf(), s)
			}
			return lw.splat(s, target.Vec), nil
		case target.IsMatrix():
			n := target.Mat
			zero := lw.floatConst(0)
			if !s.Type.Equal(sem.Float) {
				s = lw.emit(ir.OpConstruct, sem.Float, s)
			}
			cols := make([]*ir.Instr, n)
			for j := 0; j < n; j++ {
				comps := make([]*ir.Instr, n)
				for i := 0; i < n; i++ {
					if i == j {
						comps[i] = s
					} else {
						comps[i] = zero
					}
				}
				cols[j] = lw.emit(ir.OpConstruct, sem.VecType(sem.KindFloat, n), comps...)
			}
			return lw.emit(ir.OpConstruct, target, cols...), nil
		}
	}

	// Matrix resize: matN(matM).
	if len(args) == 1 && args[0].Type.IsMatrix() && target.IsMatrix() {
		src := args[0]
		n, m := target.Mat, src.Type.Mat
		one := lw.floatConst(1)
		zero := lw.floatConst(0)
		cols := make([]*ir.Instr, n)
		for j := 0; j < n; j++ {
			comps := make([]*ir.Instr, n)
			var srcCol *ir.Instr
			if j < m {
				srcCol = lw.extract(src, j)
			}
			for i := 0; i < n; i++ {
				switch {
				case j < m && i < m:
					comps[i] = lw.extract(srcCol, i)
				case i == j:
					comps[i] = one
				default:
					comps[i] = zero
				}
			}
			cols[j] = lw.emit(ir.OpConstruct, sem.VecType(sem.KindFloat, n), comps...)
		}
		return lw.emit(ir.OpConstruct, target, cols...), nil
	}

	// General: flatten argument components, convert kind, truncate extras.
	want := target.Components()
	var flat []*ir.Instr
	for _, a := range args {
		if len(flat) >= want {
			break
		}
		switch {
		case a.Type.IsScalar():
			flat = append(flat, a)
		case a.Type.IsVector():
			for i := 0; i < a.Type.Vec && len(flat) < want; i++ {
				flat = append(flat, lw.extract(a, i))
			}
		case a.Type.IsMatrix():
			for j := 0; j < a.Type.Mat && len(flat) < want; j++ {
				col := lw.extract(a, j)
				for i := 0; i < a.Type.Mat && len(flat) < want; i++ {
					flat = append(flat, lw.extract(col, i))
				}
			}
		default:
			return nil, fmt.Errorf("cannot use %s in %s constructor", a.Type, target)
		}
	}
	if len(flat) != want {
		return nil, fmt.Errorf("%s constructor needs %d components, got %d", target, want, len(flat))
	}
	// Convert kinds where needed.
	scalarT := target.ScalarOf()
	if target.IsMatrix() {
		scalarT = sem.Float
	}
	for i, f := range flat {
		if !f.Type.Equal(scalarT) {
			flat[i] = lw.emit(ir.OpConstruct, scalarT, f)
		}
	}
	if target.IsMatrix() {
		n := target.Mat
		cols := make([]*ir.Instr, n)
		for j := 0; j < n; j++ {
			cols[j] = lw.emit(ir.OpConstruct, sem.VecType(sem.KindFloat, n), flat[j*n:(j+1)*n]...)
		}
		return lw.emit(ir.OpConstruct, target, cols...), nil
	}
	return lw.emit(ir.OpConstruct, target, flat...), nil
}

func (lw *lowerer) arrayCtor(e *glsl.ArrayCtorExpr) (*ir.Instr, error) {
	t := lw.info.TypeOf(e)
	args := make([]*ir.Instr, len(e.Elems))
	for i, el := range e.Elems {
		v, err := lw.expr(el)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	return lw.emit(ir.OpConstruct, t, args...), nil
}

func (lw *lowerer) index(e *glsl.IndexExpr) (*ir.Instr, error) {
	agg, err := lw.expr(e.X)
	if err != nil {
		return nil, err
	}
	idx, err := lw.expr(e.Index)
	if err != nil {
		return nil, err
	}
	t := lw.info.TypeOf(e)
	if idx.Op == ir.OpConst {
		in := lw.emit(ir.OpExtract, t, agg)
		in.Index = int(idx.Const.Int(0))
		return in, nil
	}
	return lw.emit(ir.OpExtractDyn, t, agg, idx), nil
}

func (lw *lowerer) swizzle(e *glsl.FieldExpr) (*ir.Instr, error) {
	x, err := lw.expr(e.X)
	if err != nil {
		return nil, err
	}
	idx, err := sem.SwizzleIndices(e.Name, x.Type.Vec)
	if err != nil {
		return nil, fmt.Errorf("%s: %v", e.Pos, err)
	}
	if len(idx) == 1 {
		in := lw.emit(ir.OpExtract, x.Type.ScalarOf(), x)
		in.Index = idx[0]
		return in, nil
	}
	in := lw.emit(ir.OpSwizzle, sem.VecType(x.Type.Kind, len(idx)), x)
	in.Indices = append([]int(nil), idx...)
	return in, nil
}

// inlineCall expands a user-defined function body at the call site.
func (lw *lowerer) inlineCall(e *glsl.CallExpr) (*ir.Instr, error) {
	if err := lw.budget(); err != nil {
		return nil, err
	}
	fn, ok := lw.info.Funcs[e.Callee]
	if !ok || fn.Decl.Body == nil {
		return nil, fmt.Errorf("%s: call to undefined function %q", e.Pos, e.Callee)
	}
	if lw.depth >= maxInlineDepth {
		return nil, fmt.Errorf("%s: inline depth exceeded (recursive call to %q?)", e.Pos, e.Callee)
	}
	for _, p := range fn.Decl.Params {
		if p.Qual == glsl.QualOut || p.Qual == glsl.QualInOut {
			return nil, fmt.Errorf("%s: out/inout parameters are outside the supported subset", e.Pos)
		}
	}

	// Evaluate arguments in the caller's scope.
	args := make([]*ir.Instr, len(e.Args))
	for i, a := range e.Args {
		v, err := lw.expr(a)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}

	// Validate return shape: exactly one return, in tail position (or none
	// for void functions).
	body := fn.Decl.Body.Stmts
	var retExpr glsl.Expr
	n := len(body)
	if n > 0 {
		if r, ok := body[n-1].(*glsl.ReturnStmt); ok {
			retExpr = r.Result
			body = body[:n-1]
		}
	}
	if hasReturn(body) {
		return nil, fmt.Errorf("%s: %q has a non-tail return (outside the supported subset)", e.Pos, e.Callee)
	}
	if !fn.Return.Equal(sem.Void) && retExpr == nil {
		return nil, fmt.Errorf("%s: %q missing tail return", e.Pos, e.Callee)
	}

	// Fresh scope seeded with parameter slots (params are mutable copies);
	// the caller's locals are out of sight.
	floor := lw.scopes.Hide()
	lw.pushScope()
	for i, p := range fn.Decl.Params {
		pv := lw.prog.AddVar(p.Name, fn.Params[i])
		lw.store(pv, args[i])
		lw.bind(p.Name, &binding{slot: pv})
	}
	lw.depth++
	err := lw.stmts(body, false)
	var result *ir.Instr
	if err == nil && retExpr != nil {
		result, err = lw.expr(retExpr)
	}
	lw.depth--
	lw.popScope()
	lw.scopes.Unhide(floor)
	if err != nil {
		return nil, err
	}
	if result == nil {
		// Void call in expression position: yield a dummy value; ExprStmt
		// discards it.
		return lw.floatConst(0), nil
	}
	return result, nil
}

func hasReturn(list []glsl.Stmt) bool {
	for _, s := range list {
		switch s := s.(type) {
		case *glsl.ReturnStmt:
			return true
		case *glsl.BlockStmt:
			if hasReturn(s.Stmts) {
				return true
			}
		case *glsl.IfStmt:
			if hasReturn(s.Then.Stmts) {
				return true
			}
			if s.Else != nil && hasReturn([]glsl.Stmt{s.Else}) {
				return true
			}
		case *glsl.ForStmt:
			if hasReturn(s.Body.Stmts) {
				return true
			}
		case *glsl.WhileStmt:
			if hasReturn(s.Body.Stmts) {
				return true
			}
		}
	}
	return false
}
