package hlsl

import (
	"fmt"

	"shaderopt/internal/glsl"
	"shaderopt/internal/sem"
)

// intrinsicRenames maps HLSL intrinsic spellings onto the canonical
// library names shared with the GLSL frontend. Identically-named
// intrinsics (sin, dot, clamp, pow, saturate, ...) pass through
// unchanged; mul, mad, and fmod are desugared structurally in callExpr
// (fmod cannot rename to GLSL mod — their semantics differ for negative
// operands).
var intrinsicRenames = map[string]string{
	"lerp":       "mix",
	"frac":       "fract",
	"rsqrt":      "inversesqrt",
	"atan2":      "atan",
	"ddx":        "dFdx",
	"ddy":        "dFdy",
	"ddx_coarse": "dFdx",
	"ddy_coarse": "dFdy",
	"ddx_fine":   "dFdx",
	"ddy_fine":   "dFdy",
}

// promote applies HLSL's implicit scalar int→float conversion: when the
// expression is an int scalar and the expected type is float-kind, it is
// wrapped in an explicit float() conversion so the generated GLSL stays
// well-typed under the subset's strict checker (GLSL 330 would accept the
// implicit form, but the canonical AST is explicit about conversions).
func (tr *translator) promote(x glsl.Expr, xt sem.Type, want sem.Type) (glsl.Expr, sem.Type) {
	if xt.Equal(sem.Int) && want.Kind == sem.KindFloat {
		return &glsl.CallExpr{Callee: "float", Args: []glsl.Expr{x}}, sem.Float
	}
	return x, xt
}

// expr translates an HLSL expression into the canonical AST, returning
// the translated node and its inferred sem type.
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
	case *InitListExpr:
		return nil, sem.Void, errf(e.Pos, "brace initializers are only legal as array initializers")
	}
	return nil, sem.Void, fmt.Errorf("unknown expression %T", e)
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
	// HLSL promotes int scalars in mixed arithmetic; the subset's IR does
	// not, so make the conversion explicit on the int side.
	if xt.Kind == sem.KindFloat || yt.Kind == sem.KindFloat {
		x, xt = tr.promote(x, xt, sem.Float)
		y, yt = tr.promote(y, yt, sem.Float)
	}
	rt, err := sem.BinaryResult(e.Op, xt, yt)
	if err != nil {
		return nil, sem.Void, errf(e.Pos, "%v", err)
	}
	return &glsl.BinaryExpr{Pos: e.Pos, Op: e.Op, X: x, Y: y}, rt, nil
}

func (tr *translator) condExpr(e *CondExpr) (glsl.Expr, sem.Type, error) {
	cond, ct, err := tr.expr(e.Cond)
	if err != nil {
		return nil, sem.Void, err
	}
	if !ct.Equal(sem.Bool) {
		return nil, sem.Void, errf(e.Pos, "ternary condition must be bool, got %s", ct)
	}
	thn, tt, err := tr.expr(e.Then)
	if err != nil {
		return nil, sem.Void, err
	}
	els, et, err := tr.expr(e.Else)
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
	return &glsl.CondExpr{Pos: e.Pos, Cond: cond, Then: thn, Else: els}, tt, nil
}

func (tr *translator) identExpr(e *IdentExpr) (glsl.Expr, sem.Type, error) {
	if tr.samplers[e.Name] {
		return nil, sem.Void, errf(e.Pos, "sampler state %q can only appear as a .Sample argument", e.Name)
	}
	// Scopes are keyed by the original HLSL name, innermost first, so
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
	switch e.Callee {
	case "mul":
		// mul(a, b) is HLSL's linear-algebra product; the canonical AST
		// spells it with the * operator, which is linear-algebraic for
		// matrix operands in GLSL.
		if len(e.Args) != 2 {
			return nil, sem.Void, errf(e.Pos, "mul needs 2 arguments, got %d", len(e.Args))
		}
		return tr.binaryExpr(&BinaryExpr{Pos: e.Pos, Op: "*", X: e.Args[0], Y: e.Args[1]})
	case "mad":
		// mad(a, b, c) = a*b + c, desugared structurally so the FP passes
		// see the same expression tree a GLSL author would write.
		if len(e.Args) != 3 {
			return nil, sem.Void, errf(e.Pos, "mad needs 3 arguments, got %d", len(e.Args))
		}
		return tr.binaryExpr(&BinaryExpr{
			Pos: e.Pos, Op: "+",
			X: &BinaryExpr{Pos: e.Pos, Op: "*", X: e.Args[0], Y: e.Args[1]},
			Y: e.Args[2],
		})
	case "fmod":
		// HLSL fmod truncates toward zero (the result keeps x's sign),
		// while GLSL mod floors, so a rename would silently change
		// negative-operand results. Desugar to the defining identity
		// fmod(x, y) = x - y * trunc(x/y), with trunc spelled
		// sign(q) * floor(abs(q)) since the canonical library has no
		// trunc. The shared HLSL nodes are re-translated per occurrence
		// (the subset has no side effects), so the GLSL tree stays a tree.
		if len(e.Args) != 2 {
			return nil, sem.Void, errf(e.Pos, "fmod needs 2 arguments, got %d", len(e.Args))
		}
		x, y := e.Args[0], e.Args[1]
		q := &BinaryExpr{Pos: e.Pos, Op: "/", X: x, Y: y}
		trunc := &BinaryExpr{
			Pos: e.Pos, Op: "*",
			X: &CallExpr{Pos: e.Pos, Callee: "sign", Args: []Expr{q}},
			Y: &CallExpr{Pos: e.Pos, Callee: "floor", Args: []Expr{&CallExpr{Pos: e.Pos, Callee: "abs", Args: []Expr{q}}}},
		}
		return tr.binaryExpr(&BinaryExpr{
			Pos: e.Pos, Op: "-",
			X: x,
			Y: &BinaryExpr{Pos: e.Pos, Op: "*", X: y, Y: trunc},
		})
	case "clip":
		return nil, sem.Void, errf(e.Pos, "clip is statement-only in the subset")
	}

	// Type constructors: float4(...), float3x3(...), int(x), float(x).
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
			// HLSL promotes int scalar arguments (pow(x, 2), max(v, 0));
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

// ctorName maps HLSL constructor spellings to GLSL constructor names.
func ctorName(callee string) (string, bool) {
	switch callee {
	case "float", "half", "double":
		return "float", true
	case "int", "uint", "dword":
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
	// (float3(1, 0, 0) is idiomatic HLSL); conversions become explicit.
	if len(args) > 1 && (glslName == "float" || glslName[0] == 'v' || glslName[0] == 'm') {
		for i := range args {
			args[i], ats[i] = tr.promote(args[i], ats[i], sem.Float)
		}
	}
	rt, err := sem.ResolveConstructor(glslName, ats)
	if err != nil {
		return nil, sem.Void, errf(e.Pos, "%v", err)
	}
	return &glsl.CallExpr{Pos: e.Pos, Callee: glslName, Args: args}, rt, nil
}

// methodCall lowers HLSL's separate texture+sampler object sampling onto
// the combined-sampler builtins: t.Sample(s, uv) → texture(t, uv),
// t.SampleLevel(s, uv, lod) → textureLod(t, uv, lod), and
// t.SampleBias(s, uv, bias) → texture(t, uv, bias). The sampler-state
// argument must name a module-scope SamplerState binding; it carries no
// information the combined model needs, so it is dropped.
func (tr *translator) methodCall(e *MethodCallExpr) (glsl.Expr, sem.Type, error) {
	var target string
	var want int
	switch e.Method {
	case "Sample":
		target, want = "texture", 2
	case "SampleLevel":
		target, want = "textureLod", 3
	case "SampleBias":
		target, want = "texture", 3
	default:
		return nil, sem.Void, errf(e.Pos, "method .%s is outside the supported subset", e.Method)
	}
	if len(e.Args) != want {
		return nil, sem.Void, errf(e.Pos, ".%s needs %d arguments, got %d", e.Method, want, len(e.Args))
	}
	sampArg, ok := e.Args[0].(*IdentExpr)
	if !ok || !tr.samplers[sampArg.Name] {
		return nil, sem.Void, errf(e.Pos, ".%s: first argument must be a declared SamplerState binding", e.Method)
	}
	recv, rt, err := tr.expr(e.Recv)
	if err != nil {
		return nil, sem.Void, err
	}
	if !rt.IsSampler() {
		return nil, sem.Void, errf(e.Pos, ".%s receiver must be a texture binding, got %s", e.Method, rt)
	}
	rest := []glsl.Expr{recv}
	ats := []sem.Type{rt}
	for _, a := range e.Args[1:] {
		x, xt, err := tr.expr(a)
		if err != nil {
			return nil, sem.Void, err
		}
		x, xt = tr.promote(x, xt, sem.Float)
		rest = append(rest, x)
		ats = append(ats, xt)
	}
	out, err := sem.ResolveBuiltin(target, ats)
	if err != nil {
		return nil, sem.Void, errf(e.Pos, ".%s: %v", e.Method, err)
	}
	return &glsl.CallExpr{Pos: e.Pos, Callee: target, Args: rest}, out, nil
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
