package msl

import (
	"fmt"
	"strconv"

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

// promote applies MSL's implicit scalar int→float conversion: when the
// expression is an int scalar and the expected type is float-kind, it is
// wrapped in an explicit float() conversion so the generated GLSL stays
// well-typed under the subset's strict checker.
func (tr *translator) promote(x glsl.Expr, xt sem.Type, want sem.Type) (glsl.Expr, sem.Type) {
	if xt.Equal(sem.Int) && want.Kind == sem.KindFloat {
		return &glsl.CallExpr{Callee: "float", Args: []glsl.Expr{x}}, sem.Float
	}
	return x, xt
}

// expr translates an MSL expression into the canonical AST, returning
// the translated node and its inferred sem type.
func (tr *translator) expr(e Expr) (glsl.Expr, sem.Type, error) {
	switch e := e.(type) {
	case *IntLitExpr:
		v, err := strconv.ParseInt(e.Text, 10, 64)
		if err != nil {
			return nil, sem.Void, errf(e.Pos, "bad int literal %q", e.Text)
		}
		return &glsl.IntLitExpr{Pos: pos(e.Pos), Value: v}, sem.Int, nil
	case *FloatLitExpr:
		v, err := strconv.ParseFloat(e.Text, 64)
		if err != nil {
			return nil, sem.Void, errf(e.Pos, "bad float literal %q", e.Text)
		}
		return &glsl.FloatLitExpr{Pos: pos(e.Pos), Value: v}, sem.Float, nil
	case *BoolLitExpr:
		return &glsl.BoolLitExpr{Pos: pos(e.Pos), Value: e.Value}, sem.Bool, nil
	case *IdentExpr:
		return tr.identExpr(e)
	case *UnaryExpr:
		x, xt, err := tr.expr(e.X)
		if err != nil {
			return nil, sem.Void, err
		}
		return &glsl.UnaryExpr{Pos: pos(e.Pos), Op: e.Op, X: x}, xt, nil
	case *BinaryExpr:
		return tr.binaryExpr(e)
	case *CondExpr:
		return tr.condExpr(e)
	case *CallExpr:
		return tr.callExpr(e)
	case *MethodCallExpr:
		return tr.methodCall(e)
	case *IndexExpr:
		return tr.indexExpr(e)
	case *MemberExpr:
		return tr.memberExpr(e)
	case *ArrayLitExpr:
		return tr.arrayLit(e)
	}
	return nil, sem.Void, fmt.Errorf("unknown expression %T", e)
}

// arrayLit translates array<T, N>{...} in expression position.
func (tr *translator) arrayLit(e *ArrayLitExpr) (glsl.Expr, sem.Type, error) {
	if e.Elem == nil {
		return nil, sem.Void, errf(e.Pos, "brace initializers are only legal as array initializers")
	}
	elem, err := tr.resolveType(e.Elem)
	if err != nil {
		return nil, sem.Void, errf(e.Pos, "%v", err)
	}
	if elem.IsArray() || elem.IsSampler() {
		return nil, sem.Void, errf(e.Pos, "array of %s is outside the supported subset", elem)
	}
	n := e.Len
	if n <= 0 {
		n = len(e.Elems)
	}
	if n != len(e.Elems) {
		return nil, sem.Void, errf(e.Pos, "array<%s, %d> initialized with %d elements", elem, n, len(e.Elems))
	}
	return tr.initializer(&ArrayLitExpr{Pos: e.Pos, Elems: e.Elems}, sem.ArrayOf(elem, n))
}

func (tr *translator) binaryExpr(e *BinaryExpr) (glsl.Expr, sem.Type, error) {
	x, xt, err := tr.expr(e.X)
	if err != nil {
		return nil, sem.Void, err
	}
	y, yt, err := tr.expr(e.Y)
	if err != nil {
		return nil, sem.Void, err
	}
	// MSL promotes int scalars in mixed arithmetic; the subset's IR does
	// not, so make the conversion explicit on the int side.
	if xt.Kind == sem.KindFloat || yt.Kind == sem.KindFloat {
		x, xt = tr.promote(x, xt, sem.Float)
		y, yt = tr.promote(y, yt, sem.Float)
	}
	rt, err := sem.BinaryResult(e.Op, xt, yt)
	if err != nil {
		return nil, sem.Void, errf(e.Pos, "%v", err)
	}
	return &glsl.BinaryExpr{Pos: pos(e.Pos), Op: e.Op, X: x, Y: y}, rt, nil
}

func (tr *translator) condExpr(e *CondExpr) (glsl.Expr, sem.Type, error) {
	cond, ct, err := tr.expr(e.Cond)
	if err != nil {
		return nil, sem.Void, err
	}
	if !ct.Equal(sem.Bool) {
		return nil, sem.Void, errf(e.Pos, "ternary condition must be bool, got %s", ct)
	}
	thn, tt, err := tr.expr(e.X)
	if err != nil {
		return nil, sem.Void, err
	}
	els, et, err := tr.expr(e.Y)
	if err != nil {
		return nil, sem.Void, err
	}
	if tt.Kind == sem.KindFloat || et.Kind == sem.KindFloat {
		thn, tt = tr.promote(thn, tt, sem.Float)
		els, et = tr.promote(els, et, sem.Float)
	}
	if !tt.Equal(et) {
		return nil, sem.Void, errf(e.Pos, "ternary arms have mismatched types %s and %s", tt, et)
	}
	return &glsl.CondExpr{Pos: pos(e.Pos), Cond: cond, Then: thn, Else: els}, tt, nil
}

func (tr *translator) identExpr(e *IdentExpr) (glsl.Expr, sem.Type, error) {
	if tr.samplers[e.Name] {
		return nil, sem.Void, errf(e.Pos, "sampler %q can only appear as a .sample argument", e.Name)
	}
	if tr.instances[e.Name] != nil {
		return nil, sem.Void, errf(e.Pos, "interface struct %q can only be accessed through its members", e.Name)
	}
	if tr.outInsts[e.Name] {
		return nil, sem.Void, errf(e.Pos, "output struct %q can only be assigned through its members and returned", e.Name)
	}
	if b, ok := tr.lookup(e.Name); ok {
		return &glsl.IdentExpr{Pos: pos(e.Pos), Name: b.Name}, b.T, nil
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
	return &glsl.IndexExpr{Pos: pos(e.Pos), X: x, Index: idx}, rt, nil
}

// memberExpr resolves interface-struct member access (in.uv, u.scale) to
// the flattened globals, and vector swizzles otherwise.
func (tr *translator) memberExpr(e *MemberExpr) (glsl.Expr, sem.Type, error) {
	if id, ok := e.X.(*IdentExpr); ok {
		if fields := tr.instances[id.Name]; fields != nil {
			b, ok := fields[e.Name]
			if !ok {
				return nil, sem.Void, errf(e.Pos, "struct %q has no member %q", id.Name, e.Name)
			}
			return &glsl.IdentExpr{Pos: pos(e.Pos), Name: b.Name}, b.T, nil
		}
	}
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
	return &glsl.FieldExpr{Pos: pos(e.Pos), X: x, Name: e.Name}, rt, nil
}

func (tr *translator) callExpr(e *CallExpr) (glsl.Expr, sem.Type, error) {
	// Type constructors: float4(...), float3x3(...), uint(x), int(x).
	if name, ok := ctorName(e.Callee); ok {
		return tr.ctorCall(e, name)
	}

	name := e.Callee
	if nn, ok := intrinsicRenames[name]; ok {
		name = nn
	}
	if sem.IsBuiltin(name) {
		args, ats, err := tr.exprList(e.Args)
		if err != nil {
			return nil, sem.Void, err
		}
		rt, err := sem.ResolveBuiltin(name, ats)
		if err != nil {
			// MSL promotes int scalar arguments (pow(x, 2), max(v, 0));
			// retry with the conversions made explicit.
			promoted := false
			for i := range args {
				if ats[i].Equal(sem.Int) {
					args[i], ats[i] = tr.promote(args[i], ats[i], sem.Float)
					promoted = true
				}
			}
			if promoted {
				rt, err = sem.ResolveBuiltin(name, ats)
			}
			if err != nil {
				return nil, sem.Void, errf(e.Pos, "%v", err)
			}
		}
		return &glsl.CallExpr{Pos: pos(e.Pos), Callee: name, Args: args}, rt, nil
	}

	// User-defined function.
	if nn, ok := tr.names.Renamed(e.Callee); ok {
		if rt, ok := tr.fnRet[nn]; ok {
			args, _, err := tr.exprList(e.Args)
			if err != nil {
				return nil, sem.Void, err
			}
			return &glsl.CallExpr{Pos: pos(e.Pos), Callee: nn, Args: args}, rt, nil
		}
	}
	return nil, sem.Void, errf(e.Pos, "call to undefined function %q", e.Callee)
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
	if n, kind, ok := vecName(callee); ok {
		switch kind {
		case sem.KindFloat:
			return fmt.Sprintf("vec%d", n), true
		case sem.KindInt:
			return fmt.Sprintf("ivec%d", n), true
		case sem.KindBool:
			return fmt.Sprintf("bvec%d", n), true
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
	// Float-family constructors promote int scalar components
	// (float3(1, 0, 0) is idiomatic MSL); conversions become explicit.
	if len(args) > 1 && (glslName == "float" || glslName[0] == 'v' || glslName[0] == 'm') {
		for i := range args {
			args[i], ats[i] = tr.promote(args[i], ats[i], sem.Float)
		}
	}
	rt, err := sem.ResolveConstructor(glslName, ats)
	if err != nil {
		return nil, sem.Void, errf(e.Pos, "%v", err)
	}
	return &glsl.CallExpr{Pos: pos(e.Pos), Callee: glslName, Args: args}, rt, nil
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
func (tr *translator) methodCall(e *MethodCallExpr) (glsl.Expr, sem.Type, error) {
	recv, rt, err := tr.expr(e.Recv)
	if err != nil {
		return nil, sem.Void, err
	}
	if !rt.IsSampler() {
		return nil, sem.Void, errf(e.Pos, ".%s receiver must be a texture binding, got %s", e.Method, rt)
	}
	switch e.Method {
	case "sample":
		return tr.sampleCall(e, recv, rt)
	case "sample_compare":
		return tr.sampleCompareCall(e, recv, rt)
	case "read":
		return tr.readCall(e, recv, rt)
	}
	return nil, sem.Void, errf(e.Pos, "method .%s is outside the supported subset", e.Method)
}

// samplerArg checks that the first argument of a sampling method names a
// declared sampler parameter.
func (tr *translator) samplerArg(e *MethodCallExpr) error {
	if len(e.Args) == 0 {
		return errf(e.Pos, ".%s needs a sampler argument", e.Method)
	}
	id, ok := e.Args[0].(*IdentExpr)
	if !ok || !tr.samplers[id.Name] {
		return errf(e.Pos, ".%s: first argument must be a declared sampler parameter", e.Method)
	}
	return nil
}

func (tr *translator) sampleCall(e *MethodCallExpr, recv glsl.Expr, rt sem.Type) (glsl.Expr, sem.Type, error) {
	if err := tr.samplerArg(e); err != nil {
		return nil, sem.Void, err
	}
	if len(e.Args) < 2 || len(e.Args) > 3 {
		return nil, sem.Void, errf(e.Pos, ".sample needs 2 or 3 arguments, got %d", len(e.Args))
	}
	coord, ct, err := tr.expr(e.Args[1])
	if err != nil {
		return nil, sem.Void, err
	}
	coord, ct = tr.promote(coord, ct, sem.Float)

	if rt.Dim == sem.Dim2DArray {
		// The layer argument rejoins the coordinate as the z component.
		if len(e.Args) != 3 {
			return nil, sem.Void, errf(e.Pos, ".sample on a texture2d_array needs a layer argument")
		}
		layer, lt, err := tr.expr(e.Args[2])
		if err != nil {
			return nil, sem.Void, err
		}
		layer, _ = tr.promote(layer, lt, sem.Float)
		full := &glsl.CallExpr{Pos: pos(e.Pos), Callee: "vec3", Args: []glsl.Expr{coord, layer}}
		return tr.textureResult(e, "texture", []glsl.Expr{recv, full}, []sem.Type{rt, sem.Vec3})
	}

	args := []glsl.Expr{recv, coord}
	ats := []sem.Type{rt, ct}
	target := "texture"
	if len(e.Args) == 3 {
		wrap, ok := e.Args[2].(*CallExpr)
		if !ok || (wrap.Callee != "bias" && wrap.Callee != "level") || len(wrap.Args) != 1 {
			return nil, sem.Void, errf(e.Pos, ".sample: third argument must be bias(b) or level(l)")
		}
		x, xt, err := tr.expr(wrap.Args[0])
		if err != nil {
			return nil, sem.Void, err
		}
		x, xt = tr.promote(x, xt, sem.Float)
		args = append(args, x)
		ats = append(ats, xt)
		if wrap.Callee == "level" {
			target = "textureLod"
		}
	}
	return tr.textureResult(e, target, args, ats)
}

func (tr *translator) sampleCompareCall(e *MethodCallExpr, recv glsl.Expr, rt sem.Type) (glsl.Expr, sem.Type, error) {
	if err := tr.samplerArg(e); err != nil {
		return nil, sem.Void, err
	}
	if len(e.Args) != 3 {
		return nil, sem.Void, errf(e.Pos, ".sample_compare needs 3 arguments, got %d", len(e.Args))
	}
	coord, ct, err := tr.expr(e.Args[1])
	if err != nil {
		return nil, sem.Void, err
	}
	if !ct.Equal(sem.Vec2) {
		return nil, sem.Void, errf(e.Pos, ".sample_compare coordinate must be float2, got %s", ct)
	}
	dref, dt, err := tr.expr(e.Args[2])
	if err != nil {
		return nil, sem.Void, err
	}
	dref, _ = tr.promote(dref, dt, sem.Float)
	full := &glsl.CallExpr{Pos: pos(e.Pos), Callee: "vec3", Args: []glsl.Expr{coord, dref}}
	return tr.textureResult(e, "texture", []glsl.Expr{recv, full}, []sem.Type{rt, sem.Vec3})
}

func (tr *translator) readCall(e *MethodCallExpr, recv glsl.Expr, rt sem.Type) (glsl.Expr, sem.Type, error) {
	if len(e.Args) != 2 {
		return nil, sem.Void, errf(e.Pos, ".read needs 2 arguments, got %d", len(e.Args))
	}
	// The coordinate is spelled uintN(c) around an integer vector;
	// unwrapping the cast recovers the texelFetch coordinate exactly.
	wrap, ok := e.Args[0].(*CallExpr)
	if !ok {
		return nil, sem.Void, errf(e.Pos, ".read coordinate must be a uint2/uint3 cast of an integer vector")
	}
	var inner Expr
	switch wrap.Callee {
	case "uint2", "uint3", "int2", "int3":
		if len(wrap.Args) != 1 {
			return nil, sem.Void, errf(e.Pos, ".read coordinate cast takes one argument")
		}
		inner = wrap.Args[0]
	default:
		return nil, sem.Void, errf(e.Pos, ".read coordinate must be a uint2/uint3 cast of an integer vector")
	}
	coord, ct, err := tr.expr(inner)
	if err != nil {
		return nil, sem.Void, err
	}
	if !ct.IsVector() || ct.Kind != sem.KindInt {
		return nil, sem.Void, errf(e.Pos, ".read coordinate must be an integer vector, got %s", ct)
	}
	lod, lt, err := tr.expr(e.Args[1])
	if err != nil {
		return nil, sem.Void, err
	}
	if !lt.Equal(sem.Int) {
		return nil, sem.Void, errf(e.Pos, ".read level must be an int, got %s", lt)
	}
	// The subset's texelFetch wants the lod at the coordinate's width
	// (only the first component is consulted); splat the scalar back up.
	lodVec := &glsl.CallExpr{Pos: pos(e.Pos), Callee: fmt.Sprintf("ivec%d", ct.Vec), Args: []glsl.Expr{lod}}
	return tr.textureResult(e, "texelFetch", []glsl.Expr{recv, coord, lodVec}, []sem.Type{rt, ct, ct})
}

func (tr *translator) textureResult(e *MethodCallExpr, target string, args []glsl.Expr, ats []sem.Type) (glsl.Expr, sem.Type, error) {
	out, err := sem.ResolveBuiltin(target, ats)
	if err != nil {
		return nil, sem.Void, errf(e.Pos, ".%s: %v", e.Method, err)
	}
	return &glsl.CallExpr{Pos: pos(e.Pos), Callee: target, Args: args}, out, nil
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
