package msl

import (
	"fmt"

	"shaderopt/internal/bind"
	"shaderopt/internal/glsl"
	"shaderopt/internal/sem"
)

// intrinsicRenames maps MSL intrinsic spellings onto the canonical
// library names shared with the GLSL frontend. Identically-named
// intrinsics (sin, dot, clamp, pow, saturate, mix, fract, ...) pass
// through unchanged. The glsl_ names are this backend's own helper
// prelude: they map straight back onto the IR builtins without their
// template bodies ever being translated, so a round trip reconstructs
// the same call with the interpreter's exact float64 semantics.
var intrinsicRenames = map[string]string{
	"rsqrt":        "inversesqrt",
	"atan2":        "atan",
	"dfdx":         "dFdx",
	"dfdy":         "dFdy",
	"glsl_mod":     "mod",
	"glsl_radians": "radians",
	"glsl_degrees": "degrees",
}

// ctorName maps MSL constructor spellings to GLSL constructor names.
func ctorName(callee string) (string, bool) {
	switch callee {
	case "float", "half":
		return "float", true
	case "int", "uint":
		return "int", true
	case "bool":
		return "bool", true
	}
	return bind.CtorName(callee)
}

// ownCalls are the calls OwnStmt claims.
var ownCalls = map[string]bool{"discard_fragment": true}

// OwnStmt translates MSL's own statements: discard_fragment(), and the
// output struct of a multi-output entry — declaring it registers the
// instance, its member stores assign the out globals directly, and
// returning it is a bare return.
func (tr *translator) OwnStmt(s bind.Stmt) ([]glsl.Stmt, bool, error) {
	switch s := s.(type) {
	case *bind.DeclStmt:
		if tr.InEntry() && tr.retStruct != "" && s.Type.Name == tr.retStruct {
			if s.Init != nil {
				return nil, true, bind.Errf(s.Pos, "output struct %s cannot be initialized", s.Name)
			}
			tr.outInsts[s.Name] = true
			return nil, true, nil
		}
	case *bind.AssignStmt:
		mem, ok := s.LHS.(*bind.MemberExpr)
		if !ok {
			break
		}
		if id, ok := mem.X.(*bind.IdentExpr); ok && tr.outInsts[id.Name] {
			out, ok := tr.outFields[mem.Name]
			if !ok {
				return nil, true, bind.Errf(s.Pos, "output struct has no member %q", mem.Name)
			}
			rhs, _, err := tr.Expr(s.RHS)
			if err != nil {
				return nil, true, err
			}
			return []glsl.Stmt{&glsl.AssignStmt{Pos: s.Pos, LHS: &glsl.IdentExpr{Name: out}, Op: s.Op, RHS: rhs}}, true, nil
		}
	case *bind.ReturnStmt:
		if id, ok := s.Result.(*bind.IdentExpr); ok && tr.outInsts[id.Name] {
			return []glsl.Stmt{&glsl.ReturnStmt{Pos: s.Pos}}, true, nil
		}
	case *bind.ExprStmt:
		if call, ok := s.X.(*bind.CallExpr); ok && call.Callee == "discard_fragment" {
			if len(call.Args) != 0 {
				return nil, true, bind.Errf(s.Pos, "discard_fragment takes no arguments")
			}
			return []glsl.Stmt{&glsl.DiscardStmt{Pos: s.Pos}}, true, nil
		}
	}
	return nil, false, nil
}

// OwnExpr translates MSL's own expressions: interface-struct members
// (in.uv, u.scale resolve to the flattened globals) and the texture
// methods. The interface and output structs themselves are not values.
func (tr *translator) OwnExpr(e bind.Expr) (glsl.Expr, sem.Type, bool, error) {
	switch e := e.(type) {
	case *bind.IdentExpr:
		if tr.instances[e.Name] != nil {
			return nil, sem.Void, true, bind.Errf(e.Pos, "interface struct %q can only be accessed through its members", e.Name)
		}
		if tr.outInsts[e.Name] {
			return nil, sem.Void, true, bind.Errf(e.Pos, "output struct %q can only be assigned through its members and returned", e.Name)
		}
	case *bind.MemberExpr:
		if id, ok := e.X.(*bind.IdentExpr); ok {
			if fields := tr.instances[id.Name]; fields != nil {
				b, ok := fields[e.Name]
				if !ok {
					return nil, sem.Void, true, bind.Errf(e.Pos, "struct %q has no member %q", id.Name, e.Name)
				}
				return &glsl.IdentExpr{Pos: e.Pos, Name: b.Name}, b.T, true, nil
			}
		}
	case *bind.MethodCallExpr:
		x, t, err := tr.methodCall(e)
		return x, t, true, err
	}
	return nil, sem.Void, false, nil
}

// methodCall lowers MSL's separate texture+sampler object model back onto
// the combined-sampler builtins:
//
//	t.sample(s, c)            → texture(t, c)
//	t.sample(s, c, bias(b))   → texture(t, c, b)
//	t.sample(s, c, level(l))  → textureLod(t, c, l)
//	t.sample(s, c, uint(a))   → texture(t, vec3(c, float(a)))   [2d array]
//	t.sample_compare(s, c, d) → texture(t, vec3(c, d))          [depth2d]
//	t.read(uint2(c), l)       → texelFetch(t, c, l)
//
// The sampler-state argument must name a declared sampler parameter; it
// carries no information the combined model needs, so it is dropped.
func (tr *translator) methodCall(e *bind.MethodCallExpr) (glsl.Expr, sem.Type, error) {
	recv, rt, err := tr.Expr(e.Recv)
	if err != nil {
		return nil, sem.Void, err
	}
	if !rt.IsSampler() {
		return nil, sem.Void, bind.Errf(e.Pos, ".%s receiver must be a texture binding, got %s", e.Method, rt)
	}
	switch e.Method {
	case "sample":
		return tr.sampleCall(e, recv, rt)
	case "sample_compare":
		return tr.sampleCompareCall(e, recv, rt)
	case "read":
		return tr.readCall(e, recv, rt)
	}
	return nil, sem.Void, bind.Errf(e.Pos, "method .%s is outside the supported subset", e.Method)
}

// samplerArg checks that the first argument of a sampling method names a
// declared sampler parameter.
func (tr *translator) samplerArg(e *bind.MethodCallExpr) error {
	if len(e.Args) == 0 {
		return bind.Errf(e.Pos, ".%s needs a sampler argument", e.Method)
	}
	id, ok := e.Args[0].(*bind.IdentExpr)
	if !ok || !tr.Samplers[id.Name] {
		return bind.Errf(e.Pos, ".%s: first argument must be a declared sampler parameter", e.Method)
	}
	return nil
}

func (tr *translator) sampleCall(e *bind.MethodCallExpr, recv glsl.Expr, rt sem.Type) (glsl.Expr, sem.Type, error) {
	if err := tr.samplerArg(e); err != nil {
		return nil, sem.Void, err
	}
	if len(e.Args) < 2 || len(e.Args) > 3 {
		return nil, sem.Void, bind.Errf(e.Pos, ".sample needs 2 or 3 arguments, got %d", len(e.Args))
	}
	coord, ct, err := tr.Expr(e.Args[1])
	if err != nil {
		return nil, sem.Void, err
	}
	coord, ct = tr.Promote(coord, ct, sem.Float)

	if rt.Dim == sem.Dim2DArray {
		// The layer argument rejoins the coordinate as the z component.
		if len(e.Args) != 3 {
			return nil, sem.Void, bind.Errf(e.Pos, ".sample on a texture2d_array needs a layer argument")
		}
		layer, lt, err := tr.Expr(e.Args[2])
		if err != nil {
			return nil, sem.Void, err
		}
		layer, _ = tr.Promote(layer, lt, sem.Float)
		full := &glsl.CallExpr{Pos: e.Pos, Callee: "vec3", Args: []glsl.Expr{coord, layer}}
		return tr.textureResult(e, "texture", []glsl.Expr{recv, full}, []sem.Type{rt, sem.Vec3})
	}

	args := []glsl.Expr{recv, coord}
	ats := []sem.Type{rt, ct}
	target := "texture"
	if len(e.Args) == 3 {
		wrap, ok := e.Args[2].(*bind.CallExpr)
		if !ok || (wrap.Callee != "bias" && wrap.Callee != "level") || len(wrap.Args) != 1 {
			return nil, sem.Void, bind.Errf(e.Pos, ".sample: third argument must be bias(b) or level(l)")
		}
		x, xt, err := tr.Expr(wrap.Args[0])
		if err != nil {
			return nil, sem.Void, err
		}
		x, xt = tr.Promote(x, xt, sem.Float)
		args = append(args, x)
		ats = append(ats, xt)
		if wrap.Callee == "level" {
			target = "textureLod"
		}
	}
	return tr.textureResult(e, target, args, ats)
}

func (tr *translator) sampleCompareCall(e *bind.MethodCallExpr, recv glsl.Expr, rt sem.Type) (glsl.Expr, sem.Type, error) {
	if err := tr.samplerArg(e); err != nil {
		return nil, sem.Void, err
	}
	if len(e.Args) != 3 {
		return nil, sem.Void, bind.Errf(e.Pos, ".sample_compare needs 3 arguments, got %d", len(e.Args))
	}
	coord, ct, err := tr.Expr(e.Args[1])
	if err != nil {
		return nil, sem.Void, err
	}
	if !ct.Equal(sem.Vec2) {
		return nil, sem.Void, bind.Errf(e.Pos, ".sample_compare coordinate must be float2, got %s", ct)
	}
	dref, dt, err := tr.Expr(e.Args[2])
	if err != nil {
		return nil, sem.Void, err
	}
	dref, _ = tr.Promote(dref, dt, sem.Float)
	full := &glsl.CallExpr{Pos: e.Pos, Callee: "vec3", Args: []glsl.Expr{coord, dref}}
	return tr.textureResult(e, "texture", []glsl.Expr{recv, full}, []sem.Type{rt, sem.Vec3})
}

func (tr *translator) readCall(e *bind.MethodCallExpr, recv glsl.Expr, rt sem.Type) (glsl.Expr, sem.Type, error) {
	if len(e.Args) != 2 {
		return nil, sem.Void, bind.Errf(e.Pos, ".read needs 2 arguments, got %d", len(e.Args))
	}
	// The coordinate is spelled uintN(c) around an integer vector;
	// unwrapping the cast recovers the texelFetch coordinate exactly.
	wrap, ok := e.Args[0].(*bind.CallExpr)
	if !ok {
		return nil, sem.Void, bind.Errf(e.Pos, ".read coordinate must be a uint2/uint3 cast of an integer vector")
	}
	var inner bind.Expr
	switch wrap.Callee {
	case "uint2", "uint3", "int2", "int3":
		if len(wrap.Args) != 1 {
			return nil, sem.Void, bind.Errf(e.Pos, ".read coordinate cast takes one argument")
		}
		inner = wrap.Args[0]
	default:
		return nil, sem.Void, bind.Errf(e.Pos, ".read coordinate must be a uint2/uint3 cast of an integer vector")
	}
	coord, ct, err := tr.Expr(inner)
	if err != nil {
		return nil, sem.Void, err
	}
	if !ct.IsVector() || ct.Kind != sem.KindInt {
		return nil, sem.Void, bind.Errf(e.Pos, ".read coordinate must be an integer vector, got %s", ct)
	}
	lod, lt, err := tr.Expr(e.Args[1])
	if err != nil {
		return nil, sem.Void, err
	}
	if !lt.Equal(sem.Int) {
		return nil, sem.Void, bind.Errf(e.Pos, ".read level must be an int, got %s", lt)
	}
	// The subset's texelFetch wants the lod at the coordinate's width
	// (only the first component is consulted); splat the scalar back up.
	lodVec := &glsl.CallExpr{Pos: e.Pos, Callee: fmt.Sprintf("ivec%d", ct.Vec), Args: []glsl.Expr{lod}}
	return tr.textureResult(e, "texelFetch", []glsl.Expr{recv, coord, lodVec}, []sem.Type{rt, ct, ct})
}

func (tr *translator) textureResult(e *bind.MethodCallExpr, target string, args []glsl.Expr, ats []sem.Type) (glsl.Expr, sem.Type, error) {
	out, err := sem.ResolveBuiltin(target, ats)
	if err != nil {
		return nil, sem.Void, bind.Errf(e.Pos, ".%s: %v", e.Method, err)
	}
	return &glsl.CallExpr{Pos: e.Pos, Callee: target, Args: args}, out, nil
}
