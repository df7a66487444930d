package wgsl

import (
	"fmt"

	"shaderopt/internal/glsl"
	"shaderopt/internal/sem"
)

// builtinRenames maps WGSL builtin spellings onto the canonical library
// names shared with the GLSL frontend. Identically-named builtins (sin,
// mix, dot, clamp, ...) pass through unchanged.
var builtinRenames = map[string]string{
	"inverseSqrt":  "inversesqrt",
	"dpdx":         "dFdx",
	"dpdy":         "dFdy",
	"dpdxCoarse":   "dFdx",
	"dpdyCoarse":   "dFdy",
	"dpdxFine":     "dFdx",
	"dpdyFine":     "dFdy",
	"fwidthCoarse": "fwidth",
	"fwidthFine":   "fwidth",
	"atan2":        "atan",
}

// expr translates a WGSL expression into the canonical AST, returning the
// translated node and its inferred sem type. Inference rides along with
// translation so `let` bindings and constructor desugarings never need a
// second pass.
func (tr *translator) expr(e Expr) (glsl.Expr, sem.Type, error) {
	switch e := e.(type) {
	case *IntLitExpr:
		return &glsl.IntLitExpr{Pos: e.Pos, Value: e.Value}, sem.Int, nil
	case *FloatLitExpr:
		return &glsl.FloatLitExpr{Pos: e.Pos, Value: e.Value}, sem.Float, nil
	case *BoolLitExpr:
		return &glsl.BoolLitExpr{Pos: e.Pos, Value: e.Value}, sem.Bool, nil
	case *IdentExpr:
		return tr.identExpr(e)
	case *UnaryExpr:
		x, xt, err := tr.expr(e.X)
		if err != nil {
			return nil, sem.Void, err
		}
		return &glsl.UnaryExpr{Pos: e.Pos, Op: e.Op, X: x}, xt, nil
	case *BinaryExpr:
		x, xt, err := tr.expr(e.X)
		if err != nil {
			return nil, sem.Void, err
		}
		y, yt, err := tr.expr(e.Y)
		if err != nil {
			return nil, sem.Void, err
		}
		rt, err := sem.BinaryResult(e.Op, xt, yt)
		if err != nil {
			return nil, sem.Void, errf(e.Pos, "%v", err)
		}
		return &glsl.BinaryExpr{Pos: e.Pos, Op: e.Op, X: x, Y: y}, rt, nil
	case *CallExpr:
		return tr.callExpr(e)
	case *IndexExpr:
		return tr.indexExpr(e)
	case *MemberExpr:
		return tr.memberExpr(e)
	}
	return nil, sem.Void, fmt.Errorf("unknown expression %T", e)
}

func (tr *translator) identExpr(e *IdentExpr) (glsl.Expr, sem.Type, error) {
	if tr.samplers[e.Name] {
		return nil, sem.Void, errf(e.Pos, "sampler %q can only appear as a textureSample argument", e.Name)
	}
	// Scopes are keyed by the original WGSL name, innermost first, so
	// shadowing resolves by source semantics and each identifier carries
	// its own sanitized GLSL spelling.
	if b, ok := tr.lookup(e.Name); ok {
		return &glsl.IdentExpr{Pos: e.Pos, Name: b.Name}, b.T, nil
	}
	return nil, sem.Void, errf(e.Pos, "undefined identifier %q", e.Name)
}

func (tr *translator) indexExpr(e *IndexExpr) (glsl.Expr, sem.Type, error) {
	x, xt, err := tr.expr(e.X)
	if err != nil {
		return nil, sem.Void, err
	}
	idx, it, err := tr.expr(e.Index)
	if err != nil {
		return nil, sem.Void, err
	}
	if it.Kind != sem.KindInt || !it.IsScalar() {
		return nil, sem.Void, errf(e.Pos, "index must be an integer scalar, got %s", it)
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
		return nil, sem.Void, errf(e.Pos, "cannot index %s", xt)
	}
	return &glsl.IndexExpr{Pos: e.Pos, X: x, Index: idx}, rt, nil
}

func (tr *translator) memberExpr(e *MemberExpr) (glsl.Expr, sem.Type, error) {
	x, xt, err := tr.expr(e.X)
	if err != nil {
		return nil, sem.Void, err
	}
	if !xt.IsVector() {
		return nil, sem.Void, errf(e.Pos, "cannot swizzle %s", xt)
	}
	idx, err := sem.SwizzleIndices(e.Name, xt.Vec)
	if err != nil {
		return nil, sem.Void, errf(e.Pos, "%v", err)
	}
	rt := sem.VecType(xt.Kind, len(idx))
	return &glsl.FieldExpr{Pos: e.Pos, X: x, Name: e.Name}, rt, nil
}

func (tr *translator) callExpr(e *CallExpr) (glsl.Expr, sem.Type, error) {
	// Templated constructors: vec4<f32>(...), array<f32, 9>(...).
	if e.TypeArg != nil {
		if e.TypeArg.Name == "array" {
			return tr.arrayCtor(e)
		}
		t, err := tr.resolveType(e.TypeArg)
		if err != nil {
			return nil, sem.Void, errf(e.Pos, "%v", err)
		}
		spec, err := semToSpec(t)
		if err != nil {
			return nil, sem.Void, errf(e.Pos, "%v", err)
		}
		return tr.ctorCall(e, spec.Name)
	}

	switch e.Callee {
	case "array":
		return tr.arrayCtor(e)
	case "select":
		// WGSL select(falseValue, trueValue, condition) is the ternary.
		if len(e.Args) != 3 {
			return nil, sem.Void, errf(e.Pos, "select needs 3 arguments, got %d", len(e.Args))
		}
		els, et, err := tr.expr(e.Args[0])
		if err != nil {
			return nil, sem.Void, err
		}
		thn, _, err := tr.expr(e.Args[1])
		if err != nil {
			return nil, sem.Void, err
		}
		cond, ct, err := tr.expr(e.Args[2])
		if err != nil {
			return nil, sem.Void, err
		}
		if !ct.Equal(sem.Bool) {
			return nil, sem.Void, errf(e.Pos, "select condition must be bool, got %s", ct)
		}
		return &glsl.CondExpr{Pos: e.Pos, Cond: cond, Then: thn, Else: els}, et, nil
	case "textureSample", "textureSampleLevel":
		return tr.textureCall(e)
	}

	// Scalar/vector/matrix constructors spelled without templates:
	// vec3(...), vec4f(...), mat3x3(...), f32(x), i32(x).
	if name, ok := ctorName(e.Callee); ok {
		return tr.ctorCall(e, name)
	}

	name := e.Callee
	if nn, ok := builtinRenames[name]; ok {
		name = nn
	}
	if sem.IsBuiltin(name) {
		args, ats, err := tr.exprList(e.Args)
		if err != nil {
			return nil, sem.Void, err
		}
		rt, err := sem.ResolveBuiltin(name, ats)
		if err != nil {
			return nil, sem.Void, errf(e.Pos, "%v", err)
		}
		return &glsl.CallExpr{Pos: e.Pos, Callee: name, Args: args}, rt, nil
	}

	// User-defined function.
	if nn, ok := tr.names.Renamed(e.Callee); ok {
		if rt, ok := tr.fnRet[nn]; ok {
			args, _, err := tr.exprList(e.Args)
			if err != nil {
				return nil, sem.Void, err
			}
			return &glsl.CallExpr{Pos: e.Pos, Callee: nn, Args: args}, rt, nil
		}
	}
	return nil, sem.Void, errf(e.Pos, "call to undefined function %q", e.Callee)
}

// ctorName maps WGSL constructor spellings to GLSL constructor names.
func ctorName(callee string) (string, bool) {
	switch callee {
	case "f32", "f16":
		return "float", true
	case "i32":
		return "int", true
	case "u32":
		return "uint", true
	case "bool":
		return "bool", true
	case "vec2", "vec3", "vec4":
		return callee, true
	}
	if n, kind, ok := vecAlias(callee); ok {
		switch kind {
		case sem.KindFloat:
			return fmt.Sprintf("vec%d", n), true
		case sem.KindInt:
			return fmt.Sprintf("ivec%d", n), true
		}
	}
	if n, ok := matName(callee); ok {
		return fmt.Sprintf("mat%d", n), true
	}
	return "", false
}

func (tr *translator) ctorCall(e *CallExpr, glslName string) (glsl.Expr, sem.Type, error) {
	args, ats, err := tr.exprList(e.Args)
	if err != nil {
		return nil, sem.Void, err
	}
	rt, err := sem.ResolveConstructor(glslName, ats)
	if err != nil {
		return nil, sem.Void, errf(e.Pos, "%v", err)
	}
	return &glsl.CallExpr{Pos: e.Pos, Callee: glslName, Args: args}, rt, nil
}

func (tr *translator) arrayCtor(e *CallExpr) (glsl.Expr, sem.Type, error) {
	args, ats, err := tr.exprList(e.Args)
	if err != nil {
		return nil, sem.Void, err
	}
	if len(args) == 0 {
		return nil, sem.Void, errf(e.Pos, "array constructor needs elements")
	}
	var elem sem.Type
	if e.TypeArg != nil && e.TypeArg.Elem != nil {
		elem, err = tr.resolveType(e.TypeArg.Elem)
		if err != nil {
			return nil, sem.Void, errf(e.Pos, "%v", err)
		}
		if n := e.TypeArg.Len; n > 0 && n != len(args) {
			return nil, sem.Void, errf(e.Pos, "array<%s, %d> constructed with %d elements", e.TypeArg.Elem, n, len(args))
		}
	} else {
		elem = ats[0]
	}
	for i, at := range ats {
		if !at.Equal(elem) {
			return nil, sem.Void, errf(e.Pos, "array element %d has type %s, want %s", i+1, at, elem)
		}
	}
	spec, err := semToSpec(elem)
	if err != nil {
		return nil, sem.Void, errf(e.Pos, "%v", err)
	}
	return &glsl.ArrayCtorExpr{Pos: e.Pos, Elem: spec, Len: len(args), Elems: args},
		sem.ArrayOf(elem, len(args)), nil
}

// textureCall lowers WGSL's separate texture+sampler sampling onto the
// combined-sampler builtins: textureSample(t, s, uv) -> texture(t, uv) and
// textureSampleLevel(t, s, uv, lod) -> textureLod(t, uv, lod). The sampler
// argument must name a module-scope sampler binding; it carries no
// information the combined model needs, so it is dropped.
func (tr *translator) textureCall(e *CallExpr) (glsl.Expr, sem.Type, error) {
	want := 3
	target := "texture"
	if e.Callee == "textureSampleLevel" {
		want = 4
		target = "textureLod"
	}
	if len(e.Args) != want {
		return nil, sem.Void, errf(e.Pos, "%s needs %d arguments, got %d", e.Callee, want, len(e.Args))
	}
	sampArg, ok := e.Args[1].(*IdentExpr)
	if !ok || !tr.samplers[sampArg.Name] {
		return nil, sem.Void, errf(e.Pos, "%s: second argument must be a declared sampler binding", e.Callee)
	}
	rest := append([]Expr{e.Args[0]}, e.Args[2:]...)
	args, ats, err := tr.exprList(rest)
	if err != nil {
		return nil, sem.Void, err
	}
	rt, err := sem.ResolveBuiltin(target, ats)
	if err != nil {
		return nil, sem.Void, errf(e.Pos, "%s: %v", e.Callee, err)
	}
	return &glsl.CallExpr{Pos: e.Pos, Callee: target, Args: args}, rt, nil
}

func (tr *translator) exprList(list []Expr) ([]glsl.Expr, []sem.Type, error) {
	args := make([]glsl.Expr, len(list))
	ats := make([]sem.Type, len(list))
	for i, a := range list {
		x, t, err := tr.expr(a)
		if err != nil {
			return nil, nil, err
		}
		args[i], ats[i] = x, t
	}
	return args, ats, nil
}
