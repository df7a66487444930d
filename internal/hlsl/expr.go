package hlsl

import (
	"shaderopt/internal/bind"
	"shaderopt/internal/glsl"
	"shaderopt/internal/lex"
	"shaderopt/internal/sem"
)

// intrinsicRenames maps HLSL intrinsic spellings onto the canonical
// library names shared with the GLSL frontend. Identically-named
// intrinsics (sin, dot, clamp, pow, saturate, ...) pass through
// unchanged; mul, mad, and fmod are desugared structurally in OwnExpr
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
	return bind.CtorName(callee)
}

// OwnStmt desugars the statement-only clip(x).
func (tr *translator) OwnStmt(s bind.Stmt) ([]glsl.Stmt, bool, error) {
	if st, ok := s.(*bind.ExprStmt); ok {
		if call, ok := st.X.(*bind.CallExpr); ok && call.Callee == "clip" {
			gs, err := tr.clipStmt(call)
			return gs, true, err
		}
	}
	return nil, false, nil
}

// ownCalls are the calls OwnExpr and OwnStmt claim.
var ownCalls = map[string]bool{"mul": true, "mad": true, "fmod": true, "clip": true}

// OwnExpr translates HLSL's own calls: mul, mad and fmod, and the
// resource methods.
func (tr *translator) OwnExpr(e bind.Expr) (glsl.Expr, sem.Type, bool, error) {
	var x glsl.Expr
	var t sem.Type
	var err error
	switch e := e.(type) {
	case *bind.CallExpr:
		switch e.Callee {
		case "mul":
			// mul(a, b) is HLSL's linear-algebra product; the canonical
			// AST spells it with the * operator, which is
			// linear-algebraic for matrix operands in GLSL.
			if len(e.Args) != 2 {
				return nil, sem.Void, true, bind.Errf(e.Pos, "mul needs 2 arguments, got %d", len(e.Args))
			}
			x, t, err = tr.Binary(&bind.BinaryExpr{Pos: e.Pos, Op: "*", X: e.Args[0], Y: e.Args[1]})
		case "mad":
			// mad(a, b, c) = a*b + c, desugared structurally so the FP
			// passes see the same expression tree a GLSL author would
			// write.
			if len(e.Args) != 3 {
				return nil, sem.Void, true, bind.Errf(e.Pos, "mad needs 3 arguments, got %d", len(e.Args))
			}
			x, t, err = tr.Binary(&bind.BinaryExpr{
				Pos: e.Pos, Op: "+",
				X: &bind.BinaryExpr{Pos: e.Pos, Op: "*", X: e.Args[0], Y: e.Args[1]},
				Y: e.Args[2],
			})
		case "fmod":
			if len(e.Args) != 2 {
				return nil, sem.Void, true, bind.Errf(e.Pos, "fmod needs 2 arguments, got %d", len(e.Args))
			}
			x, t, err = tr.fmod(e)
		case "clip":
			return nil, sem.Void, true, bind.Errf(e.Pos, "clip is statement-only in the subset")
		default:
			return nil, sem.Void, false, nil
		}
	case *bind.MethodCallExpr:
		x, t, err = tr.methodCall(e)
	default:
		return nil, sem.Void, false, nil
	}
	return x, t, true, err
}

// clipStmt desugars `clip(x);` into `if (x < 0.0) { discard; }` for
// scalar arguments — the canonical form the GLSL corpus uses for alpha
// kill.
func (tr *translator) clipStmt(call *bind.CallExpr) ([]glsl.Stmt, error) {
	if len(call.Args) != 1 {
		return nil, bind.Errf(call.Pos, "clip needs 1 argument, got %d", len(call.Args))
	}
	x, xt, err := tr.Expr(call.Args[0])
	if err != nil {
		return nil, err
	}
	if !xt.Equal(sem.Float) {
		return nil, bind.Errf(call.Pos, "clip argument must be a float scalar in the subset, got %s", xt)
	}
	return []glsl.Stmt{&glsl.IfStmt{
		Pos:  call.Pos,
		Cond: &glsl.BinaryExpr{Pos: call.Pos, Op: "<", X: x, Y: &glsl.FloatLitExpr{Value: 0}},
		Then: &glsl.BlockStmt{Stmts: []glsl.Stmt{&glsl.DiscardStmt{Pos: call.Pos}}},
	}}, nil
}

// fmod translates HLSL fmod, which truncates toward zero (the result
// keeps x's sign) where GLSL mod floors, so a rename would silently change
// negative-operand results. Each pair of operand types gets one
// synthesized helper that spells the defining identity
// fmod(x, y) = x - y * trunc(x/y), with trunc written
// sign(q) * floor(abs(q)) since the canonical library has no trunc. The
// shared lowering inlines the helper with x and y bound once, so nested
// fmods translate in time and size linear in the source.
func (tr *translator) fmod(e *bind.CallExpr) (glsl.Expr, sem.Type, error) {
	args, ats, err := tr.ExprList(e.Args)
	if err != nil {
		return nil, sem.Void, err
	}
	key := ats[0].String() + "," + ats[1].String()
	name, ok := tr.fmods[key]
	if !ok {
		if name, err = tr.fmodHelper(e.Pos, ats[0], ats[1]); err != nil {
			return nil, sem.Void, err
		}
		tr.fmods[key] = name
	}
	return &glsl.CallExpr{Pos: e.Pos, Callee: name, Args: args}, tr.FnRet[name], nil
}

// fmodHelper declares the fmod helper for operands of types xt and yt.
// Its body translates with the rules of every other expression, so its
// promotions, result type and type errors are those of the identity
// written out at the call site at p.
func (tr *translator) fmodHelper(p lex.Pos, xt, yt sem.Type) (string, error) {
	// The parameters' source keys cannot be HLSL identifiers, so no user
	// binding (or sampler) can capture them.
	x := &bind.IdentExpr{Pos: p, Name: "fmod x"}
	y := &bind.IdentExpr{Pos: p, Name: "fmod y"}
	q := &bind.BinaryExpr{Pos: p, Op: "/", X: x, Y: y}
	trunc := &bind.BinaryExpr{
		Pos: p, Op: "*",
		X: &bind.CallExpr{Pos: p, Callee: "sign", Args: []bind.Expr{q}},
		Y: &bind.CallExpr{Pos: p, Callee: "floor", Args: []bind.Expr{&bind.CallExpr{Pos: p, Callee: "abs", Args: []bind.Expr{q}}}},
	}
	tr.Push()
	xn, yn := tr.Local("x"), tr.Local("y")
	tr.Bind(x.Name, xn, xt)
	tr.Bind(y.Name, yn, yt)
	res, rt, err := tr.Binary(&bind.BinaryExpr{Pos: p, Op: "-", X: x, Y: &bind.BinaryExpr{Pos: p, Op: "*", X: y, Y: trunc}})
	tr.Pop()
	if err != nil {
		return "", err
	}
	var specs [3]glsl.TypeSpec
	for i, t := range []sem.Type{rt, xt, yt} {
		if specs[i], err = bind.SemToSpec(t); err != nil {
			return "", bind.Errf(p, "fmod: %v", err)
		}
	}
	name := "fmod_" + specs[1].Name
	if !xt.Equal(yt) {
		name += "_" + specs[2].Name
	}
	name = tr.Fresh(name)
	tr.FnRet[name] = rt
	tr.Sh.Decls = append(tr.Sh.Decls, &glsl.FuncDecl{
		Return: specs[0],
		Name:   name,
		Params: []glsl.Param{{Type: specs[1], Name: xn}, {Type: specs[2], Name: yn}},
		Body:   &glsl.BlockStmt{Stmts: []glsl.Stmt{&glsl.ReturnStmt{Pos: p, Result: res}}},
	})
	return name, nil
}

// methodCall lowers HLSL's separate texture+sampler object sampling onto
// the combined-sampler builtins: t.Sample(s, uv) → texture(t, uv),
// t.SampleLevel(s, uv, lod) → textureLod(t, uv, lod), and
// t.SampleBias(s, uv, bias) → texture(t, uv, bias). The sampler-state
// argument must name a module-scope SamplerState binding; it carries no
// information the combined model needs, so it is dropped.
func (tr *translator) methodCall(e *bind.MethodCallExpr) (glsl.Expr, sem.Type, error) {
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
		return nil, sem.Void, bind.Errf(e.Pos, "method .%s is outside the supported subset", e.Method)
	}
	if len(e.Args) != want {
		return nil, sem.Void, bind.Errf(e.Pos, ".%s needs %d arguments, got %d", e.Method, want, len(e.Args))
	}
	sampArg, ok := e.Args[0].(*bind.IdentExpr)
	if !ok || !tr.Samplers[sampArg.Name] {
		return nil, sem.Void, bind.Errf(e.Pos, ".%s: first argument must be a declared SamplerState binding", e.Method)
	}
	recv, rt, err := tr.Expr(e.Recv)
	if err != nil {
		return nil, sem.Void, err
	}
	if !rt.IsSampler() {
		return nil, sem.Void, bind.Errf(e.Pos, ".%s receiver must be a texture binding, got %s", e.Method, rt)
	}
	rest := []glsl.Expr{recv}
	ats := []sem.Type{rt}
	for _, a := range e.Args[1:] {
		x, xt, err := tr.Expr(a)
		if err != nil {
			return nil, sem.Void, err
		}
		x, xt = tr.Promote(x, xt, sem.Float)
		rest = append(rest, x)
		ats = append(ats, xt)
	}
	out, err := sem.ResolveBuiltin(target, ats)
	if err != nil {
		return nil, sem.Void, bind.Errf(e.Pos, ".%s: %v", e.Method, err)
	}
	return &glsl.CallExpr{Pos: e.Pos, Callee: target, Args: rest}, out, nil
}
