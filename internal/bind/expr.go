package bind

import (
	"fmt"

	"shaderopt/internal/glsl"
	"shaderopt/internal/sem"
)

// Promote applies the language's implicit scalar int→float conversion:
// when the expression is an int scalar and the expected type is
// float-kind, it is wrapped in an explicit float() so the canonical AST
// stays well-typed under the subset's strict checker. Languages without
// implicit conversions get x back unchanged.
func (b *Binder) Promote(x glsl.Expr, xt sem.Type, want sem.Type) (glsl.Expr, sem.Type) {
	if b.lang.Promote && xt.Equal(sem.Int) && want.Kind == sem.KindFloat {
		return &glsl.CallExpr{Callee: "float", Args: []glsl.Expr{x}}, sem.Float
	}
	return x, xt
}

// Expr translates an expression into the canonical AST, returning the
// translated node and its inferred sem type. Inference rides along with
// translation, so inferred declarations and constructor desugarings never
// need a second pass.
func (b *Binder) Expr(e Expr) (glsl.Expr, sem.Type, error) {
	switch e := e.(type) {
	case *IntLitExpr:
		return &glsl.IntLitExpr{Pos: e.Pos, Value: e.Value}, sem.Int, nil
	case *FloatLitExpr:
		return &glsl.FloatLitExpr{Pos: e.Pos, Value: e.Value}, sem.Float, nil
	case *BoolLitExpr:
		return &glsl.BoolLitExpr{Pos: e.Pos, Value: e.Value}, sem.Bool, nil
	case *IdentExpr:
		if b.Samplers[e.Name] {
			return nil, sem.Void, Errf(e.Pos, b.lang.SamplerUse, e.Name)
		}
		if x, t, ok, err := b.lang.Own.OwnExpr(e); ok || err != nil {
			return x, t, err
		}
		if bd, ok := b.Lookup(e.Name); ok {
			return &glsl.IdentExpr{Pos: e.Pos, Name: bd.Name}, bd.T, nil
		}
		return nil, sem.Void, Errf(e.Pos, "undefined identifier %q", e.Name)
	case *UnaryExpr:
		x, xt, err := b.Expr(e.X)
		if err != nil {
			return nil, sem.Void, err
		}
		return &glsl.UnaryExpr{Pos: e.Pos, Op: e.Op, X: x}, xt, nil
	case *BinaryExpr:
		return b.Binary(e)
	case *CondExpr:
		return b.condExpr(e)
	case *CallExpr:
		if x, t, ok, err := b.lang.Own.OwnExpr(e); ok || err != nil {
			return x, t, err
		}
		return b.call(e)
	case *MethodCallExpr:
		if x, t, ok, err := b.lang.Own.OwnExpr(e); ok || err != nil {
			return x, t, err
		}
		return nil, sem.Void, Errf(e.Pos, "method .%s is outside the supported subset", e.Method)
	case *IndexExpr:
		return b.indexExpr(e)
	case *MemberExpr:
		if x, t, ok, err := b.lang.Own.OwnExpr(e); ok || err != nil {
			return x, t, err
		}
		return b.swizzle(e)
	case *InitListExpr:
		return b.typedList(e)
	}
	return nil, sem.Void, fmt.Errorf("unknown expression %T", e)
}

// Binary translates a binary operator. Where the language promotes, an
// int scalar meeting a float operand converts explicitly, since the
// subset's IR does not mix them.
func (b *Binder) Binary(e *BinaryExpr) (glsl.Expr, sem.Type, error) {
	x, xt, err := b.Expr(e.X)
	if err != nil {
		return nil, sem.Void, err
	}
	y, yt, err := b.Expr(e.Y)
	if err != nil {
		return nil, sem.Void, err
	}
	if xt.Kind == sem.KindFloat || yt.Kind == sem.KindFloat {
		x, xt = b.Promote(x, xt, sem.Float)
		y, yt = b.Promote(y, yt, sem.Float)
	}
	rt, err := sem.BinaryResult(e.Op, xt, yt)
	if err != nil {
		return nil, sem.Void, Errf(e.Pos, "%v", err)
	}
	return &glsl.BinaryExpr{Pos: e.Pos, Op: e.Op, X: x, Y: y}, rt, nil
}

func (b *Binder) condExpr(e *CondExpr) (glsl.Expr, sem.Type, error) {
	cond, ct, err := b.Expr(e.Cond)
	if err != nil {
		return nil, sem.Void, err
	}
	if !ct.Equal(sem.Bool) {
		return nil, sem.Void, Errf(e.Pos, "ternary condition must be bool, got %s", ct)
	}
	thn, tt, err := b.Expr(e.Then)
	if err != nil {
		return nil, sem.Void, err
	}
	els, et, err := b.Expr(e.Else)
	if err != nil {
		return nil, sem.Void, err
	}
	if tt.Kind == sem.KindFloat || et.Kind == sem.KindFloat {
		thn, tt = b.Promote(thn, tt, sem.Float)
		els, et = b.Promote(els, et, sem.Float)
	}
	if !tt.Equal(et) {
		return nil, sem.Void, Errf(e.Pos, "ternary arms have mismatched types %s and %s", tt, et)
	}
	return &glsl.CondExpr{Pos: e.Pos, Cond: cond, Then: thn, Else: els}, tt, nil
}

func (b *Binder) indexExpr(e *IndexExpr) (glsl.Expr, sem.Type, error) {
	x, xt, err := b.Expr(e.X)
	if err != nil {
		return nil, sem.Void, err
	}
	idx, it, err := b.Expr(e.Index)
	if err != nil {
		return nil, sem.Void, err
	}
	if it.Kind != sem.KindInt || !it.IsScalar() {
		return nil, sem.Void, Errf(e.Pos, "index must be an integer scalar, got %s", it)
	}
	var rt sem.Type
	switch {
	case xt.IsArray():
		rt = xt.Elem()
	case xt.IsMatrix():
		rt = sem.VecType(sem.KindFloat, xt.Mat)
	case xt.IsVector():
		rt = xt.ScalarOf()
	default:
		return nil, sem.Void, Errf(e.Pos, "cannot index %s", xt)
	}
	return &glsl.IndexExpr{Pos: e.Pos, X: x, Index: idx}, rt, nil
}

func (b *Binder) swizzle(e *MemberExpr) (glsl.Expr, sem.Type, error) {
	x, xt, err := b.Expr(e.X)
	if err != nil {
		return nil, sem.Void, err
	}
	if !xt.IsVector() {
		return nil, sem.Void, Errf(e.Pos, "cannot swizzle %s", xt)
	}
	idx, err := sem.SwizzleIndices(e.Name, xt.Vec)
	if err != nil {
		return nil, sem.Void, Errf(e.Pos, "%v", err)
	}
	return &glsl.FieldExpr{Pos: e.Pos, X: x, Name: e.Name}, sem.VecType(xt.Kind, len(idx)), nil
}

// typedList translates a brace list in value position: only MSL's typed
// array<T, N>{...} is legal there, and it sizes itself from its elements
// when N is absent.
func (b *Binder) typedList(e *InitListExpr) (glsl.Expr, sem.Type, error) {
	if e.Type == nil {
		return nil, sem.Void, Errf(e.Pos, "brace initializers are only legal as array initializers")
	}
	elem, err := b.lang.Resolve(e.Type.Elem)
	if err != nil {
		return nil, sem.Void, Errf(e.Pos, "%v", err)
	}
	if elem.IsArray() || elem.IsSampler() {
		return nil, sem.Void, Errf(e.Pos, "array of %s is outside the supported subset", elem)
	}
	n := e.Type.Len
	if n <= 0 {
		n = len(e.Elems)
	}
	if n != len(e.Elems) {
		return nil, sem.Void, Errf(e.Pos, "array<%s, %d> initialized with %d elements", elem, n, len(e.Elems))
	}
	return b.Initializer(&InitListExpr{Pos: e.Pos, Elems: e.Elems}, sem.ArrayOf(elem, n))
}

// call translates a constructor, builtin or user-function call.
func (b *Binder) call(e *CallExpr) (glsl.Expr, sem.Type, error) {
	if name, ok := b.lang.Ctor(e.Callee); ok {
		return b.CtorCall(e, name)
	}
	name := e.Callee
	if nn, ok := b.lang.Renames[name]; ok {
		name = nn
	}
	if sem.IsBuiltin(name) {
		args, ats, err := b.ExprList(e.Args)
		if err != nil {
			return nil, sem.Void, err
		}
		rt, err := sem.ResolveBuiltin(name, ats)
		if err != nil && b.lang.Promote {
			// int scalar arguments promote (pow(x, 2), max(v, 0)): retry
			// with the conversions made explicit.
			promoted := false
			for i := range args {
				if ats[i].Equal(sem.Int) {
					args[i], ats[i] = b.Promote(args[i], ats[i], sem.Float)
					promoted = true
				}
			}
			if promoted {
				rt, err = sem.ResolveBuiltin(name, ats)
			}
		}
		if err != nil {
			return nil, sem.Void, Errf(e.Pos, "%v", err)
		}
		return &glsl.CallExpr{Pos: e.Pos, Callee: name, Args: args}, rt, nil
	}
	if nn, ok := b.names.renames[e.Callee]; ok {
		if rt, ok := b.FnRet[nn]; ok {
			args, _, err := b.ExprList(e.Args)
			if err != nil {
				return nil, sem.Void, err
			}
			return &glsl.CallExpr{Pos: e.Pos, Callee: nn, Args: args}, rt, nil
		}
	}
	return nil, sem.Void, Errf(e.Pos, "call to undefined function %q", e.Callee)
}

// CtorCall translates a call of the GLSL constructor glslName. Where the
// language promotes, float-family constructors convert int scalar
// components explicitly (float3(1, 0, 0) is idiomatic HLSL and MSL).
func (b *Binder) CtorCall(e *CallExpr, glslName string) (glsl.Expr, sem.Type, error) {
	args, ats, err := b.ExprList(e.Args)
	if err != nil {
		return nil, sem.Void, err
	}
	if len(args) > 1 && (glslName == "float" || glslName[0] == 'v' || glslName[0] == 'm') {
		for i := range args {
			args[i], ats[i] = b.Promote(args[i], ats[i], sem.Float)
		}
	}
	rt, err := sem.ResolveConstructor(glslName, ats)
	if err != nil {
		return nil, sem.Void, Errf(e.Pos, "%v", err)
	}
	return &glsl.CallExpr{Pos: e.Pos, Callee: glslName, Args: args}, rt, nil
}

// ExprList translates a list of expressions in order.
func (b *Binder) ExprList(list []Expr) ([]glsl.Expr, []sem.Type, error) {
	args := make([]glsl.Expr, len(list))
	ats := make([]sem.Type, len(list))
	for i, a := range list {
		x, t, err := b.Expr(a)
		if err != nil {
			return nil, nil, err
		}
		args[i], ats[i] = x, t
	}
	return args, ats, nil
}
