package hlsl

import (
	"fmt"

	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/lex"
	"shaderopt/internal/lower"
	"shaderopt/internal/naming"
	"shaderopt/internal/sem"
)

// Compile parses HLSL source and lowers it to an IR program.
func Compile(src, name string) (*ir.Program, error) {
	m, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Lower(m, name)
}

// Lower binds and lowers a parsed HLSL module into the optimizer IR. The
// module's SV_Target entry point becomes the program body; helper
// functions are inlined by the shared lowering, exactly as for GLSL and
// WGSL input, so every downstream stage (passes, codegen, harness, cost
// models) is frontend-independent.
func Lower(m *Module, name string) (*ir.Program, error) {
	sh, err := Translate(m)
	if err != nil {
		return nil, err
	}
	return lower.Lower(sh, name)
}

// Translate binds an HLSL module and desugars it into the compiler's
// canonical surface form (the checked GLSL AST): entry-point parameters
// become `in` interface globals, the SV_Target return value becomes an
// `out` global, cbuffer members flatten into loose uniforms,
// Texture2D/SamplerState pairs collapse into combined samplers, and HLSL
// intrinsics are renamed to their canonical equivalents. Expression types
// are inferred here against the sem type system, so swizzles, intrinsic
// overloads, and HLSL's scalar int→float promotion resolve in one pass.
func Translate(m *Module) (*glsl.Shader, error) {
	tr := &translator{
		names:    naming.New("_h"),
		fnRet:    map[string]sem.Type{},
		samplers: map[string]bool{},
	}
	return tr.module(m)
}

// translator carries the binding state of one module translation. Value
// scopes are keyed by the ORIGINAL HLSL name with the sanitized GLSL
// spelling riding along in each binding (see naming.Scopes), and all
// spelling decisions live in the shared naming.Namer with this
// frontend's "_h" escape suffix.
type translator struct {
	sh     *glsl.Shader
	scopes naming.Scopes // original HLSL name -> GLSL spelling + type
	names  *naming.Namer // module-scope renames and reservations

	fnRet    map[string]sem.Type // helper function return types
	samplers map[string]bool     // SamplerState bindings (dropped in GLSL)
	entry    *FnDecl
	curRet   sem.Type // declared return type of the function being translated
}

func (tr *translator) pushScope() { tr.scopes.Push() }
func (tr *translator) popScope()  { tr.scopes.Pop() }

func (tr *translator) bind(orig, glslName string, t sem.Type) {
	tr.scopes.Bind(orig, glslName, t)
}

func (tr *translator) lookup(orig string) (naming.Binding, bool) {
	return tr.scopes.Lookup(orig)
}

// rename maps an HLSL identifier to a GLSL-safe one: names that collide
// with GLSL keywords, type names, or builtin functions are suffixed so the
// generated source re-parses cleanly through the mobile conversion path.
func (tr *translator) rename(name string) string { return tr.names.Rename(name) }

// freshName reserves a GLSL-safe module-scope name for a synthesized
// variable (not a source identifier, so the rename map is bypassed — a
// user global that happens to share the base name keeps its own slot and
// the synthesized variable moves aside).
func (tr *translator) freshName(base string) string { return tr.names.Fresh(base) }

func errf(p lex.Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...))
}

// --- module-scope translation ---

func (tr *translator) module(m *Module) (*glsl.Shader, error) {
	tr.sh = &glsl.Shader{Version: "330"}
	tr.entry = m.EntryPoint()
	if tr.entry == nil {
		return nil, fmt.Errorf("module has no pixel-shader entry point (SV_Target return semantic or a function named main)")
	}
	tr.names.Reserve("main")
	tr.pushScope() // module scope
	defer tr.popScope()

	// Pre-bind helper signatures so calls ahead of the declaration resolve.
	for _, f := range m.Fns() {
		if f == tr.entry {
			continue
		}
		ret := sem.Void
		if f.Ret != nil && f.Ret.Name != "void" {
			t, err := tr.resolveType(f.Ret)
			if err != nil {
				return nil, errf(f.Pos, "function %s: %v", f.Name, err)
			}
			ret = t
		}
		tr.fnRet[tr.rename(f.Name)] = ret
	}

	for _, d := range m.Decls {
		switch d := d.(type) {
		case *CBufferDecl:
			if err := tr.cbuffer(d); err != nil {
				return nil, err
			}
		case *GlobalVar:
			if err := tr.globalVar(d); err != nil {
				return nil, err
			}
		case *FnDecl:
			if d == tr.entry {
				continue // translated last, once all globals are bound
			}
			if err := tr.helperFn(d); err != nil {
				return nil, err
			}
		}
	}
	if err := tr.entryFn(tr.entry); err != nil {
		return nil, err
	}
	return tr.sh, nil
}

// cbuffer flattens a constant block into individual uniforms — the
// canonical AST models the paper's desktop-GLSL interchange form, where
// study shaders use loose uniforms, and the block structure is only a
// binding-layout detail.
func (tr *translator) cbuffer(d *CBufferDecl) error {
	for _, mem := range d.Members {
		t, err := tr.resolveDeclType(mem.Type, mem.ArrayLen)
		if err != nil {
			return errf(mem.Pos, "cbuffer %s member %s: %v", d.Name, mem.Name, err)
		}
		spec, err := semToSpec(t)
		if err != nil {
			return errf(mem.Pos, "cbuffer %s member %s: %v", d.Name, mem.Name, err)
		}
		name := tr.rename(mem.Name)
		tr.sh.Decls = append(tr.sh.Decls, &glsl.GlobalVar{Qual: glsl.QualUniform, Type: spec, Name: name})
		tr.bind(mem.Name, name, t)
	}
	return nil
}

func (tr *translator) globalVar(d *GlobalVar) error {
	if IsSamplerStateName(d.Type.Name) {
		// Separate sampler state collapses into the combined GLSL sampler;
		// the binding only legalizes .Sample call sites.
		tr.samplers[d.Name] = true
		return nil
	}
	t, err := tr.resolveDeclType(d.Type, d.ArrayLen)
	if err != nil && d.ArrayLen == 0 {
		// Unsized array: the brace initializer determines the length.
		if lst, ok := d.Init.(*InitListExpr); ok && len(lst.Elems) > 0 {
			t, err = tr.resolveDeclType(d.Type, len(lst.Elems))
		}
	}
	if err != nil {
		return errf(d.Pos, "global %s: %v", d.Name, err)
	}
	spec, err := semToSpec(t)
	if err != nil {
		return errf(d.Pos, "global %s: %v", d.Name, err)
	}
	name := tr.rename(d.Name)
	g := &glsl.GlobalVar{Type: spec, Name: name}
	switch {
	case !d.Static:
		// Loose globals are $Globals constant-buffer members: uniforms.
		if d.Init != nil && !d.Const {
			return errf(d.Pos, "global %s: an initialized global must be static (uniforms have no defaults in the subset)", d.Name)
		}
		if d.Init != nil {
			g.Qual = glsl.QualConst
		} else {
			g.Qual = glsl.QualUniform
		}
	case d.Const:
		g.Qual = glsl.QualConst
		if d.Init == nil {
			return errf(d.Pos, "static const %s needs an initializer", d.Name)
		}
	default:
		g.Qual = glsl.QualNone
	}
	if d.Init != nil {
		init, it, err := tr.initializer(d.Init, t)
		if err != nil {
			return err
		}
		if !it.Equal(t) {
			return errf(d.Pos, "cannot initialize %s %s with %s", t, d.Name, it)
		}
		g.Init = init
	}
	if t.IsSampler() {
		g.Qual = glsl.QualUniform // texture binding
	}
	tr.sh.Decls = append(tr.sh.Decls, g)
	tr.bind(d.Name, name, t)
	return nil
}

// helperFn translates a non-entry function into a GLSL function; the
// shared lowering inlines it at each call site.
func (tr *translator) helperFn(d *FnDecl) error {
	ret := glsl.Scalar("void")
	if d.Ret != nil && d.Ret.Name != "void" {
		t, err := tr.resolveType(d.Ret)
		if err != nil {
			return errf(d.Pos, "function %s: %v", d.Name, err)
		}
		if ret, err = semToSpec(t); err != nil {
			return errf(d.Pos, "function %s: %v", d.Name, err)
		}
	}
	fn := &glsl.FuncDecl{Return: ret, Name: tr.rename(d.Name)}
	tr.curRet = tr.fnRet[fn.Name]
	tr.pushScope()
	defer tr.popScope()
	for _, p := range d.Params {
		if p.Qual == "out" || p.Qual == "inout" {
			return errf(d.Pos, "function %s: %s parameters are outside the supported subset", d.Name, p.Qual)
		}
		t, err := tr.resolveDeclType(p.Type, p.ArrayLen)
		if err != nil {
			return errf(d.Pos, "function %s param %s: %v", d.Name, p.Name, err)
		}
		spec, err := semToSpec(t)
		if err != nil {
			return errf(d.Pos, "function %s param %s: %v", d.Name, p.Name, err)
		}
		// Parameters shadow module names; bind without the module rename map.
		pn := tr.localName(p.Name)
		fn.Params = append(fn.Params, glsl.Param{Type: spec, Name: pn})
		tr.bind(p.Name, pn, t)
	}
	body, err := tr.block(d.Body, nil)
	if err != nil {
		return fmt.Errorf("function %s: %w", d.Name, err)
	}
	fn.Body = body
	tr.sh.Decls = append(tr.sh.Decls, fn)
	return nil
}

// entryFn translates the pixel-shader entry point into void main():
// semantic-annotated parameters become `in` globals and the SV_Target
// return value becomes an `out` global that valued returns store to.
func (tr *translator) entryFn(d *FnDecl) error {
	var outVar string
	if d.Ret == nil || d.Ret.Name == "void" {
		return errf(d.Pos, "entry point %s must return the SV_Target color", d.Name)
	}
	t, err := tr.resolveType(d.Ret)
	if err != nil {
		return errf(d.Pos, "entry return: %v", err)
	}
	spec, err := semToSpec(t)
	if err != nil {
		return errf(d.Pos, "entry return: %v", err)
	}
	// The synthesized out variable is not a source identifier: reserve a
	// fresh module-level name and keep it out of the value scopes (only
	// the return desugaring refers to it, by this exact spelling).
	outVar = tr.freshName("fragColor")
	tr.sh.Decls = append(tr.sh.Decls, &glsl.GlobalVar{Qual: glsl.QualOut, Type: spec, Name: outVar})
	tr.curRet = t

	tr.pushScope()
	defer tr.popScope()
	for _, p := range d.Params {
		if p.Qual == "out" || p.Qual == "inout" {
			return errf(d.Pos, "entry %s parameters are outside the supported subset (return the SV_Target value)", p.Qual)
		}
		t, err := tr.resolveDeclType(p.Type, p.ArrayLen)
		if err != nil {
			return errf(d.Pos, "entry param %s: %v", p.Name, err)
		}
		spec, err := semToSpec(t)
		if err != nil {
			return errf(d.Pos, "entry param %s: %v", p.Name, err)
		}
		// Entry parameters become module-level `in` globals in the
		// generated GLSL, but in HLSL they shadow module names — so the
		// global gets a fresh non-colliding spelling while the binding
		// stays keyed by the parameter's own name.
		name := tr.freshName(p.Name)
		tr.sh.Decls = append(tr.sh.Decls, &glsl.GlobalVar{Qual: glsl.QualIn, Type: spec, Name: name})
		tr.bind(p.Name, name, t)
	}
	body, err := tr.block(d.Body, &outVar)
	if err != nil {
		return fmt.Errorf("entry %s: %w", d.Name, err)
	}
	tr.sh.Decls = append(tr.sh.Decls, &glsl.FuncDecl{
		Return: glsl.Scalar("void"), Name: "main", Body: body,
	})
	return nil
}

// localName keeps function-local identifiers GLSL-safe and clear of
// every module-level spelling (see naming.Namer.Local for why that is a
// correctness requirement, not hygiene). Scopes are keyed by the
// original HLSL name, so the suffixed spelling rides along in the
// binding and shadowing still resolves by source semantics.
func (tr *translator) localName(name string) string { return tr.names.Local(name) }

// --- statements ---

// block translates a statement block. entryOut, when non-nil, is the name
// of the entry point's out variable: `return expr` desugars into a store
// to it followed by a bare return.
func (tr *translator) block(b *BlockStmt, entryOut *string) (*glsl.BlockStmt, error) {
	tr.pushScope()
	defer tr.popScope()
	out := &glsl.BlockStmt{Pos: b.Pos}
	for _, s := range b.Stmts {
		gs, err := tr.stmt(s, entryOut)
		if err != nil {
			return nil, err
		}
		out.Stmts = append(out.Stmts, gs...)
	}
	return out, nil
}

func (tr *translator) stmt(s Stmt, entryOut *string) ([]glsl.Stmt, error) {
	switch s := s.(type) {
	case *BlockStmt:
		b, err := tr.block(s, entryOut)
		if err != nil {
			return nil, err
		}
		return []glsl.Stmt{b}, nil
	case *DeclStmt:
		d, err := tr.declStmt(s)
		if err != nil {
			return nil, err
		}
		return []glsl.Stmt{d}, nil
	case *AssignStmt:
		return tr.assignStmt(s)
	case *IfStmt:
		return tr.ifStmt(s, entryOut)
	case *ForStmt:
		return tr.forStmt(s, entryOut)
	case *WhileStmt:
		cond, ct, err := tr.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		if !ct.Equal(sem.Bool) {
			return nil, errf(s.Pos, "while condition must be bool, got %s", ct)
		}
		body, err := tr.block(s.Body, entryOut)
		if err != nil {
			return nil, err
		}
		return []glsl.Stmt{&glsl.WhileStmt{Pos: s.Pos, Cond: cond, Body: body}}, nil
	case *ReturnStmt:
		if s.Result == nil {
			return []glsl.Stmt{&glsl.ReturnStmt{Pos: s.Pos}}, nil
		}
		res, rt, err := tr.expr(s.Result)
		if err != nil {
			return nil, err
		}
		// `return 0;` from a float function is legal HLSL: apply the same
		// int→float promotion every other value position gets.
		res, _ = tr.promote(res, rt, tr.curRet)
		if entryOut != nil {
			// Entry point: store the fragment output, then return void.
			return []glsl.Stmt{
				&glsl.AssignStmt{Pos: s.Pos, LHS: &glsl.IdentExpr{Name: *entryOut}, Op: "=", RHS: res},
				&glsl.ReturnStmt{Pos: s.Pos},
			}, nil
		}
		return []glsl.Stmt{&glsl.ReturnStmt{Pos: s.Pos, Result: res}}, nil
	case *DiscardStmt:
		return []glsl.Stmt{&glsl.DiscardStmt{Pos: s.Pos}}, nil
	case *BreakStmt:
		return []glsl.Stmt{&glsl.BreakStmt{Pos: s.Pos}}, nil
	case *ContinueStmt:
		return []glsl.Stmt{&glsl.ContinueStmt{Pos: s.Pos}}, nil
	case *ExprStmt:
		// clip(x) is statement-only: desugar to the GLSL discard idiom.
		if call, ok := s.X.(*CallExpr); ok && call.Callee == "clip" {
			return tr.clipStmt(call)
		}
		x, _, err := tr.expr(s.X)
		if err != nil {
			return nil, err
		}
		return []glsl.Stmt{&glsl.ExprStmt{Pos: s.Pos, X: x}}, nil
	}
	return nil, fmt.Errorf("unknown statement %T", s)
}

// clipStmt desugars `clip(x);` into `if (x < 0.0) { discard; }` for
// scalar arguments — the canonical form the GLSL corpus uses for alpha
// kill.
func (tr *translator) clipStmt(call *CallExpr) ([]glsl.Stmt, error) {
	if len(call.Args) != 1 {
		return nil, errf(call.Pos, "clip needs 1 argument, got %d", len(call.Args))
	}
	x, xt, err := tr.expr(call.Args[0])
	if err != nil {
		return nil, err
	}
	if !xt.Equal(sem.Float) {
		return nil, errf(call.Pos, "clip argument must be a float scalar in the subset, got %s", xt)
	}
	return []glsl.Stmt{&glsl.IfStmt{
		Pos:  call.Pos,
		Cond: &glsl.BinaryExpr{Pos: call.Pos, Op: "<", X: x, Y: &glsl.FloatLitExpr{Value: 0}},
		Then: &glsl.BlockStmt{Stmts: []glsl.Stmt{&glsl.DiscardStmt{Pos: call.Pos}}},
	}}, nil
}

func (tr *translator) declStmt(s *DeclStmt) (*glsl.DeclStmt, error) {
	t, err := tr.resolveDeclType(s.Type, s.ArrayLen)
	if err != nil && s.ArrayLen == 0 {
		if lst, ok := s.Init.(*InitListExpr); ok && len(lst.Elems) > 0 {
			t, err = tr.resolveDeclType(s.Type, len(lst.Elems))
		}
	}
	if err != nil {
		return nil, errf(s.Pos, "%s: %v", s.Name, err)
	}
	var gInit glsl.Expr
	if s.Init != nil {
		init, it, err := tr.initializer(s.Init, t)
		if err != nil {
			return nil, err
		}
		init, it = tr.promote(init, it, t)
		if !it.Equal(t) {
			return nil, errf(s.Pos, "cannot initialize %s %s with %s", t, s.Name, it)
		}
		gInit = init
	}
	spec, err := semToSpec(t)
	if err != nil {
		return nil, errf(s.Pos, "%s: %v", s.Name, err)
	}
	ln := tr.localName(s.Name)
	tr.bind(s.Name, ln, t)
	return &glsl.DeclStmt{Pos: s.Pos, Const: s.Const, Type: spec, Name: ln, Init: gInit}, nil
}

// initializer translates a declaration initializer: a brace list becomes
// a GLSL array constructor checked against the declared array type; any
// other expression translates normally.
func (tr *translator) initializer(e Expr, declared sem.Type) (glsl.Expr, sem.Type, error) {
	lst, ok := e.(*InitListExpr)
	if !ok {
		return tr.expr(e)
	}
	if !declared.IsArray() {
		return nil, sem.Void, errf(lst.Pos, "brace initializers are only supported for arrays")
	}
	elem := declared.Elem()
	if declared.ArrayLen != len(lst.Elems) {
		return nil, sem.Void, errf(lst.Pos, "%s initialized with %d elements", declared, len(lst.Elems))
	}
	spec, err := semToSpec(elem)
	if err != nil {
		return nil, sem.Void, errf(lst.Pos, "%v", err)
	}
	elems := make([]glsl.Expr, len(lst.Elems))
	for i, el := range lst.Elems {
		x, xt, err := tr.expr(el)
		if err != nil {
			return nil, sem.Void, err
		}
		x, xt = tr.promote(x, xt, elem)
		if !xt.Equal(elem) {
			return nil, sem.Void, errf(lst.Pos, "initializer element %d has type %s, want %s", i+1, xt, elem)
		}
		elems[i] = x
	}
	return &glsl.ArrayCtorExpr{Pos: lst.Pos, Elem: spec, Len: len(elems), Elems: elems},
		declared, nil
}

func (tr *translator) assignStmt(s *AssignStmt) ([]glsl.Stmt, error) {
	lhs, lt, err := tr.expr(s.LHS)
	if err != nil {
		return nil, err
	}
	rhs, rt, err := tr.expr(s.RHS)
	if err != nil {
		return nil, err
	}
	rhs, rt = tr.promote(rhs, rt, lt)
	if s.Op == "=" && !rt.Equal(lt) {
		return nil, errf(s.Pos, "cannot assign %s to %s", rt, lt)
	}
	return []glsl.Stmt{&glsl.AssignStmt{Pos: s.Pos, LHS: lhs, Op: s.Op, RHS: rhs}}, nil
}

func (tr *translator) ifStmt(s *IfStmt, entryOut *string) ([]glsl.Stmt, error) {
	cond, ct, err := tr.expr(s.Cond)
	if err != nil {
		return nil, err
	}
	if !ct.Equal(sem.Bool) {
		return nil, errf(s.Pos, "if condition must be bool, got %s", ct)
	}
	then, err := tr.block(s.Then, entryOut)
	if err != nil {
		return nil, err
	}
	out := &glsl.IfStmt{Pos: s.Pos, Cond: cond, Then: then}
	switch els := s.Else.(type) {
	case nil:
	case *BlockStmt:
		b, err := tr.block(els, entryOut)
		if err != nil {
			return nil, err
		}
		out.Else = b
	case *IfStmt:
		chain, err := tr.ifStmt(els, entryOut)
		if err != nil {
			return nil, err
		}
		out.Else = chain[0]
	default:
		return nil, errf(s.Pos, "unsupported else form %T", s.Else)
	}
	return []glsl.Stmt{out}, nil
}

// forStmt translates HLSL `for`, keeping the canonical counted shape
// (`for (int i = 0; i < N; i++)`) intact so the shared lowering
// recognizes it and the Unroll pass can fire on HLSL loops exactly as on
// GLSL and WGSL ones.
func (tr *translator) forStmt(s *ForStmt, entryOut *string) ([]glsl.Stmt, error) {
	tr.pushScope()
	defer tr.popScope()
	out := &glsl.ForStmt{Pos: s.Pos}
	if s.Init != nil {
		init, err := tr.stmt(s.Init, entryOut)
		if err != nil {
			return nil, err
		}
		if len(init) != 1 {
			return nil, errf(s.Pos, "unsupported for-loop initializer")
		}
		out.Init = init[0]
	}
	if s.Cond != nil {
		cond, ct, err := tr.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		if !ct.Equal(sem.Bool) {
			return nil, errf(s.Pos, "for condition must be bool, got %s", ct)
		}
		out.Cond = cond
	}
	if s.Post != nil {
		post, err := tr.stmt(s.Post, entryOut)
		if err != nil {
			return nil, err
		}
		if len(post) != 1 {
			return nil, errf(s.Pos, "unsupported for-loop post statement")
		}
		out.Post = post[0]
	}
	body, err := tr.block(s.Body, entryOut)
	if err != nil {
		return nil, err
	}
	out.Body = body
	return []glsl.Stmt{out}, nil
}
