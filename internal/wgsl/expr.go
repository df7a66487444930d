package wgsl

import (
	"fmt"

	"shaderopt/internal/bind"
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

// OwnStmt leaves every statement to the binder: WGSL has no statements
// of its own.
func (tr *translator) OwnStmt(bind.Stmt) ([]glsl.Stmt, bool, error) { return nil, false, nil }

// ownCalls are the calls OwnExpr claims.
var ownCalls = map[string]bool{"select": true, "textureSample": true, "textureSampleLevel": true, "array": true}

// OwnExpr translates WGSL's own calls: the templated and array
// constructors, select, and the textureSample builtins.
func (tr *translator) OwnExpr(e bind.Expr) (glsl.Expr, sem.Type, bool, error) {
	call, ok := e.(*bind.CallExpr)
	if !ok {
		return nil, sem.Void, false, nil
	}
	var x glsl.Expr
	var t sem.Type
	var err error
	switch {
	case call.TypeArg != nil && call.TypeArg.Name != "array":
		x, t, err = tr.templatedCtor(call)
	case call.TypeArg != nil || call.Callee == "array":
		x, t, err = tr.arrayCtor(call)
	case call.Callee == "select":
		x, t, err = tr.selectCall(call)
	case call.Callee == "textureSample" || call.Callee == "textureSampleLevel":
		x, t, err = tr.textureCall(call)
	default:
		return nil, sem.Void, false, nil
	}
	return x, t, true, err
}

// templatedCtor translates a constructor spelled with template syntax,
// vec4<f32>(...) or mat3x3<f32>(...).
func (tr *translator) templatedCtor(e *bind.CallExpr) (glsl.Expr, sem.Type, error) {
	t, err := resolveType(e.TypeArg)
	if err != nil {
		return nil, sem.Void, bind.Errf(e.Pos, "%v", err)
	}
	spec, err := bind.SemToSpec(t)
	if err != nil {
		return nil, sem.Void, bind.Errf(e.Pos, "%v", err)
	}
	return tr.CtorCall(e, spec.Name)
}

// selectCall translates WGSL select(falseValue, trueValue, condition), the
// ternary.
func (tr *translator) selectCall(e *bind.CallExpr) (glsl.Expr, sem.Type, error) {
	if len(e.Args) != 3 {
		return nil, sem.Void, bind.Errf(e.Pos, "select needs 3 arguments, got %d", len(e.Args))
	}
	els, et, err := tr.Expr(e.Args[0])
	if err != nil {
		return nil, sem.Void, err
	}
	thn, _, err := tr.Expr(e.Args[1])
	if err != nil {
		return nil, sem.Void, err
	}
	cond, ct, err := tr.Expr(e.Args[2])
	if err != nil {
		return nil, sem.Void, err
	}
	if !ct.Equal(sem.Bool) {
		return nil, sem.Void, bind.Errf(e.Pos, "select condition must be bool, got %s", ct)
	}
	return &glsl.CondExpr{Pos: e.Pos, Cond: cond, Then: thn, Else: els}, et, nil
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
	if n, ok := matAlias(callee); ok {
		return fmt.Sprintf("mat%d", n), true
	}
	return "", false
}

func (tr *translator) arrayCtor(e *bind.CallExpr) (glsl.Expr, sem.Type, error) {
	args, ats, err := tr.ExprList(e.Args)
	if err != nil {
		return nil, sem.Void, err
	}
	if len(args) == 0 {
		return nil, sem.Void, bind.Errf(e.Pos, "array constructor needs elements")
	}
	var elem sem.Type
	if e.TypeArg != nil && e.TypeArg.Elem != nil {
		elem, err = resolveType(e.TypeArg.Elem)
		if err != nil {
			return nil, sem.Void, bind.Errf(e.Pos, "%v", err)
		}
		if n := e.TypeArg.Len; n > 0 && n != len(args) {
			return nil, sem.Void, bind.Errf(e.Pos, "array<%s, %d> constructed with %d elements", e.TypeArg.Elem, n, len(args))
		}
	} else {
		elem = ats[0]
	}
	for i, at := range ats {
		if !at.Equal(elem) {
			return nil, sem.Void, bind.Errf(e.Pos, "array element %d has type %s, want %s", i+1, at, elem)
		}
	}
	spec, err := bind.SemToSpec(elem)
	if err != nil {
		return nil, sem.Void, bind.Errf(e.Pos, "%v", err)
	}
	return &glsl.ArrayCtorExpr{Pos: e.Pos, Elem: spec, Len: len(args), Elems: args},
		sem.ArrayOf(elem, len(args)), nil
}

// textureCall lowers WGSL's separate texture+sampler sampling onto the
// combined-sampler builtins: textureSample(t, s, uv) -> texture(t, uv) and
// textureSampleLevel(t, s, uv, lod) -> textureLod(t, uv, lod). The sampler
// argument must name a module-scope sampler binding; it carries no
// information the combined model needs, so it is dropped.
func (tr *translator) textureCall(e *bind.CallExpr) (glsl.Expr, sem.Type, error) {
	want := 3
	target := "texture"
	if e.Callee == "textureSampleLevel" {
		want = 4
		target = "textureLod"
	}
	if len(e.Args) != want {
		return nil, sem.Void, bind.Errf(e.Pos, "%s needs %d arguments, got %d", e.Callee, want, len(e.Args))
	}
	sampArg, ok := e.Args[1].(*bind.IdentExpr)
	if !ok || !tr.Samplers[sampArg.Name] {
		return nil, sem.Void, bind.Errf(e.Pos, "%s: second argument must be a declared sampler binding", e.Callee)
	}
	rest := append([]bind.Expr{e.Args[0]}, e.Args[2:]...)
	args, ats, err := tr.ExprList(rest)
	if err != nil {
		return nil, sem.Void, err
	}
	rt, err := sem.ResolveBuiltin(target, ats)
	if err != nil {
		return nil, sem.Void, bind.Errf(e.Pos, "%s: %v", e.Callee, err)
	}
	return &glsl.CallExpr{Pos: e.Pos, Callee: target, Args: args}, rt, nil
}
