package msl

import (
	"fmt"

	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/lex"
	"shaderopt/internal/lower"
	"shaderopt/internal/naming"
	"shaderopt/internal/sem"
)

// Compile parses MSL source and lowers it to an IR program.
func Compile(src, name string) (*ir.Program, error) {
	m, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Lower(m, name)
}

// Lower binds and lowers a parsed MSL module into the optimizer IR. The
// fragment entry point becomes the program body; helper functions are
// inlined by the shared lowering, exactly as for GLSL, WGSL, and HLSL
// input, so every downstream stage is frontend-independent.
func Lower(m *Module, name string) (*ir.Program, error) {
	sh, err := Translate(m)
	if err != nil {
		return nil, err
	}
	return lower.Lower(sh, name)
}

// Translate binds an MSL module and desugars it into the compiler's
// canonical surface form (the checked GLSL AST). The [[stage_in]] struct
// flattens into `in` interface globals, the constant buffer struct into
// loose uniforms, texture/sampler argument pairs collapse into combined
// samplers, the entry return value (scalar or output struct) becomes
// `out` globals, and MSL intrinsic spellings (rsqrt, atan2, dfdx, the
// glsl_ helper names) rename to their canonical equivalents.
func Translate(m *Module) (*glsl.Shader, error) {
	tr := &translator{
		names:     naming.New("_m"),
		fnRet:     map[string]sem.Type{},
		samplers:  map[string]bool{},
		structs:   map[string]*StructDecl{},
		instances: map[string]map[string]naming.Binding{},
		outInsts:  map[string]bool{},
		outFields: map[string]string{},
	}
	return tr.module(m)
}

// translator carries the binding state of one module translation. Value
// scopes are keyed by the ORIGINAL MSL name with the sanitized GLSL
// spelling riding along in each binding (see naming.Scopes), and all
// spelling decisions live in the shared naming.Namer with this frontend's
// "_m" escape suffix.
type translator struct {
	sh     *glsl.Shader
	scopes naming.Scopes
	names  *naming.Namer

	fnRet    map[string]sem.Type // helper function return types
	samplers map[string]bool     // sampler-state parameter names (dropped)
	structs  map[string]*StructDecl

	// instances maps a struct-typed interface parameter (the stage_in and
	// buffer arguments) to its field bindings: `in.uv` resolves through
	// here to the flattened interface global.
	instances map[string]map[string]naming.Binding

	// Output-struct state for a multi-output entry: retStruct names the
	// declared return struct, outFields maps its field names to the
	// synthesized out globals, outInsts tracks locals declared with the
	// struct type (their member stores assign the out globals directly and
	// returning one desugars to a bare return).
	retStruct string
	outFields map[string]string
	outInsts  map[string]bool

	entry    *FnDecl
	curRet   sem.Type
	entryOut string // synthesized out global of a value-returning entry
}

func (tr *translator) pushScope() { tr.scopes.Push() }
func (tr *translator) popScope()  { tr.scopes.Pop() }

func (tr *translator) bind(orig, glslName string, t sem.Type) {
	tr.scopes.Bind(orig, glslName, t)
}

func (tr *translator) lookup(orig string) (naming.Binding, bool) {
	return tr.scopes.Lookup(orig)
}

func (tr *translator) rename(name string) string    { return tr.names.Rename(name) }
func (tr *translator) freshName(base string) string { return tr.names.Fresh(base) }
func (tr *translator) localName(name string) string { return tr.names.Local(name) }

func errf(p lex.Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...))
}

// --- module-scope translation ---

func (tr *translator) module(m *Module) (*glsl.Shader, error) {
	tr.sh = &glsl.Shader{Version: "330"}
	for _, st := range m.Structs() {
		tr.structs[st.Name] = st
	}
	tr.entry = m.EntryPoint()
	if tr.entry == nil {
		return nil, fmt.Errorf("module has no fragment entry point")
	}
	tr.names.Reserve("main")
	tr.pushScope()
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

// globalVar translates a module-scope `constant` definition into a const
// global.
func (tr *translator) globalVar(d *GlobalVar) error {
	t, err := tr.resolveType(d.Type)
	if err != nil {
		return errf(d.Pos, "constant %s: %v", d.Name, err)
	}
	if d.Init == nil {
		return errf(d.Pos, "constant %s needs an initializer", d.Name)
	}
	spec, err := semToSpec(t)
	if err != nil {
		return errf(d.Pos, "constant %s: %v", d.Name, err)
	}
	init, it, err := tr.initializer(d.Init, t)
	if err != nil {
		return err
	}
	init, it = tr.promote(init, it, t)
	if !it.Equal(t) {
		return errf(d.Pos, "cannot initialize %s %s with %s", t, d.Name, it)
	}
	name := tr.rename(d.Name)
	tr.sh.Decls = append(tr.sh.Decls, &glsl.GlobalVar{Qual: glsl.QualConst, Type: spec, Name: name, Init: init})
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
		if p.Space != "" || p.Ref || p.Attr.Name != "" {
			return errf(d.Pos, "function %s: qualified parameters are only legal on the entry point", d.Name)
		}
		t, err := tr.resolveType(p.Type)
		if err != nil {
			return errf(d.Pos, "function %s param %s: %v", d.Name, p.Name, err)
		}
		if t.IsSampler() {
			return errf(d.Pos, "function %s param %s: texture parameters are outside the supported subset", d.Name, p.Name)
		}
		spec, err := semToSpec(t)
		if err != nil {
			return errf(d.Pos, "function %s param %s: %v", d.Name, p.Name, err)
		}
		pn := tr.localName(p.Name)
		fn.Params = append(fn.Params, glsl.Param{Type: spec, Name: pn})
		tr.bind(p.Name, pn, t)
	}
	body, err := tr.block(d.Body, false)
	if err != nil {
		return fmt.Errorf("function %s: %w", d.Name, err)
	}
	fn.Body = body
	tr.sh.Decls = append(tr.sh.Decls, fn)
	return nil
}

// entryFn translates the fragment entry point into void main(). The
// stage_in struct parameter flattens into `in` globals, the constant
// buffer into uniforms, texture/sampler pairs into combined samplers, and
// the return value (direct or via the output struct) into `out` globals.
func (tr *translator) entryFn(d *FnDecl) error {
	entryOut := ""
	if d.Ret == nil || d.Ret.Name == "void" {
		return errf(d.Pos, "entry point %s must return the fragment color", d.Name)
	}
	if st, ok := tr.structs[d.Ret.Name]; ok {
		// Multi-output entry: the return struct's [[color(i)]] members
		// become out globals in declaration order.
		tr.retStruct = st.Name
		for _, f := range st.Fields {
			t, err := tr.resolveType(f.Type)
			if err != nil {
				return errf(st.Pos, "output %s.%s: %v", st.Name, f.Name, err)
			}
			spec, err := semToSpec(t)
			if err != nil {
				return errf(st.Pos, "output %s.%s: %v", st.Name, f.Name, err)
			}
			name := tr.rename(f.Name)
			tr.sh.Decls = append(tr.sh.Decls, &glsl.GlobalVar{Qual: glsl.QualOut, Type: spec, Name: name})
			tr.outFields[f.Name] = name
		}
		tr.curRet = sem.Void
	} else {
		t, err := tr.resolveType(d.Ret)
		if err != nil {
			return errf(d.Pos, "entry return: %v", err)
		}
		spec, err := semToSpec(t)
		if err != nil {
			return errf(d.Pos, "entry return: %v", err)
		}
		entryOut = tr.freshName("fragColor")
		tr.sh.Decls = append(tr.sh.Decls, &glsl.GlobalVar{Qual: glsl.QualOut, Type: spec, Name: entryOut})
		tr.curRet = t
	}

	tr.pushScope()
	defer tr.popScope()
	for _, p := range d.Params {
		if err := tr.entryParam(d, p); err != nil {
			return err
		}
	}
	tr.entryOut = entryOut
	body, err := tr.block(d.Body, true)
	if err != nil {
		return fmt.Errorf("entry %s: %w", d.Name, err)
	}
	tr.sh.Decls = append(tr.sh.Decls, &glsl.FuncDecl{
		Return: glsl.Scalar("void"), Name: "main", Body: body,
	})
	return nil
}

func (tr *translator) entryParam(d *FnDecl, p Param) error {
	switch {
	case p.Attr.Name == "stage_in":
		st, ok := tr.structs[p.Type.Name]
		if !ok {
			return errf(d.Pos, "stage_in parameter %s: unknown struct %q", p.Name, p.Type.Name)
		}
		fields := map[string]naming.Binding{}
		for _, f := range st.Fields {
			t, err := tr.resolveType(f.Type)
			if err != nil {
				return errf(st.Pos, "input %s.%s: %v", st.Name, f.Name, err)
			}
			spec, err := semToSpec(t)
			if err != nil {
				return errf(st.Pos, "input %s.%s: %v", st.Name, f.Name, err)
			}
			name := tr.rename(f.Name)
			tr.sh.Decls = append(tr.sh.Decls, &glsl.GlobalVar{Qual: glsl.QualIn, Type: spec, Name: name})
			fields[f.Name] = naming.Binding{Name: name, T: t}
		}
		tr.instances[p.Name] = fields
		return nil
	case p.Space == "constant" && p.Ref:
		st, ok := tr.structs[p.Type.Name]
		if !ok {
			return errf(d.Pos, "buffer parameter %s: unknown struct %q", p.Name, p.Type.Name)
		}
		fields := map[string]naming.Binding{}
		for _, f := range st.Fields {
			t, err := tr.resolveType(f.Type)
			if err != nil {
				return errf(st.Pos, "uniform %s.%s: %v", st.Name, f.Name, err)
			}
			spec, err := semToSpec(t)
			if err != nil {
				return errf(st.Pos, "uniform %s.%s: %v", st.Name, f.Name, err)
			}
			name := tr.rename(f.Name)
			tr.sh.Decls = append(tr.sh.Decls, &glsl.GlobalVar{Qual: glsl.QualUniform, Type: spec, Name: name})
			fields[f.Name] = naming.Binding{Name: name, T: t}
		}
		tr.instances[p.Name] = fields
		return nil
	case p.Type.Name == "sampler":
		// Separate sampler state collapses into the combined GLSL sampler;
		// the binding only legalizes .sample call sites.
		tr.samplers[p.Name] = true
		return nil
	}
	t, err := tr.resolveType(p.Type)
	if err != nil {
		return errf(d.Pos, "entry param %s: %v", p.Name, err)
	}
	if !t.IsSampler() {
		return errf(d.Pos, "entry param %s: plain value parameters are outside the supported subset", p.Name)
	}
	spec, err := semToSpec(t)
	if err != nil {
		return errf(d.Pos, "entry param %s: %v", p.Name, err)
	}
	name := tr.rename(p.Name)
	tr.sh.Decls = append(tr.sh.Decls, &glsl.GlobalVar{Qual: glsl.QualUniform, Type: spec, Name: name})
	tr.bind(p.Name, name, t)
	return nil
}

// --- statements ---

// block translates a statement block. inEntry marks the entry body, where
// valued returns desugar into out-global stores.
func (tr *translator) block(b *BlockStmt, inEntry bool) (*glsl.BlockStmt, error) {
	tr.pushScope()
	defer tr.popScope()
	out := &glsl.BlockStmt{Pos: b.Pos}
	for _, s := range b.Stmts {
		gs, err := tr.stmt(s, inEntry)
		if err != nil {
			return nil, err
		}
		out.Stmts = append(out.Stmts, gs...)
	}
	return out, nil
}

func (tr *translator) stmt(s Stmt, inEntry bool) ([]glsl.Stmt, error) {
	switch s := s.(type) {
	case *BlockStmt:
		b, err := tr.block(s, inEntry)
		if err != nil {
			return nil, err
		}
		return []glsl.Stmt{b}, nil
	case *DeclStmt:
		return tr.declStmt(s, inEntry)
	case *AssignStmt:
		return tr.assignStmt(s)
	case *IfStmt:
		return tr.ifStmt(s, inEntry)
	case *ForStmt:
		return tr.forStmt(s, inEntry)
	case *WhileStmt:
		cond, ct, err := tr.expr(s.Cond)
		if err != nil {
			return nil, err
		}
		if !ct.Equal(sem.Bool) {
			return nil, errf(s.Pos, "while condition must be bool, got %s", ct)
		}
		body, err := tr.block(s.Body, inEntry)
		if err != nil {
			return nil, err
		}
		return []glsl.Stmt{&glsl.WhileStmt{Pos: s.Pos, Cond: cond, Body: body}}, nil
	case *ReturnStmt:
		return tr.returnStmt(s, inEntry)
	case *BreakStmt:
		return []glsl.Stmt{&glsl.BreakStmt{Pos: s.Pos}}, nil
	case *ContinueStmt:
		return []glsl.Stmt{&glsl.ContinueStmt{Pos: s.Pos}}, nil
	case *ExprStmt:
		if call, ok := s.X.(*CallExpr); ok && call.Callee == "discard_fragment" {
			if len(call.Args) != 0 {
				return nil, errf(s.Pos, "discard_fragment takes no arguments")
			}
			return []glsl.Stmt{&glsl.DiscardStmt{Pos: s.Pos}}, nil
		}
		x, _, err := tr.expr(s.X)
		if err != nil {
			return nil, err
		}
		return []glsl.Stmt{&glsl.ExprStmt{Pos: s.Pos, X: x}}, nil
	}
	return nil, fmt.Errorf("unknown statement %T", s)
}

func (tr *translator) returnStmt(s *ReturnStmt, inEntry bool) ([]glsl.Stmt, error) {
	if s.Value == nil {
		return []glsl.Stmt{&glsl.ReturnStmt{Pos: s.Pos}}, nil
	}
	// Returning an output-struct instance: its member stores already
	// assigned the out globals, so the return itself carries no value.
	if id, ok := s.Value.(*IdentExpr); ok && tr.outInsts[id.Name] {
		return []glsl.Stmt{&glsl.ReturnStmt{Pos: s.Pos}}, nil
	}
	res, rt, err := tr.expr(s.Value)
	if err != nil {
		return nil, err
	}
	res, _ = tr.promote(res, rt, tr.curRet)
	if inEntry && tr.entryOut != "" {
		return []glsl.Stmt{
			&glsl.AssignStmt{Pos: s.Pos, LHS: &glsl.IdentExpr{Name: tr.entryOut}, Op: "=", RHS: res},
			&glsl.ReturnStmt{Pos: s.Pos},
		}, nil
	}
	return []glsl.Stmt{&glsl.ReturnStmt{Pos: s.Pos, Result: res}}, nil
}

func (tr *translator) declStmt(s *DeclStmt, inEntry bool) ([]glsl.Stmt, error) {
	// Declaring the output struct (`main0_out out0;`): register the
	// instance; its member stores assign the out globals directly.
	if inEntry && tr.retStruct != "" && s.Type.Name == tr.retStruct {
		if s.Init != nil {
			return nil, errf(s.Pos, "output struct %s cannot be initialized", s.Name)
		}
		tr.outInsts[s.Name] = true
		return nil, nil
	}
	t, err := tr.resolveType(s.Type)
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
	return []glsl.Stmt{&glsl.DeclStmt{Pos: s.Pos, Const: s.Const, Type: spec, Name: ln, Init: gInit}}, nil
}

// initializer translates a declaration initializer: an array<T, N>{...}
// or bare brace list becomes a GLSL array constructor checked against the
// declared type; any other expression translates normally.
func (tr *translator) initializer(e Expr, declared sem.Type) (glsl.Expr, sem.Type, error) {
	lst, ok := e.(*ArrayLitExpr)
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
	// Output-struct member store: assign the corresponding out global.
	if mem, ok := s.LHS.(*MemberExpr); ok {
		if id, ok := mem.X.(*IdentExpr); ok && tr.outInsts[id.Name] {
			out, ok := tr.outFields[mem.Name]
			if !ok {
				return nil, errf(s.Pos, "output struct has no member %q", mem.Name)
			}
			rhs, _, err := tr.expr(s.RHS)
			if err != nil {
				return nil, err
			}
			return []glsl.Stmt{&glsl.AssignStmt{Pos: s.Pos, LHS: &glsl.IdentExpr{Name: out}, Op: s.Op, RHS: rhs}}, nil
		}
	}
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

func (tr *translator) ifStmt(s *IfStmt, inEntry bool) ([]glsl.Stmt, error) {
	cond, ct, err := tr.expr(s.Cond)
	if err != nil {
		return nil, err
	}
	if !ct.Equal(sem.Bool) {
		return nil, errf(s.Pos, "if condition must be bool, got %s", ct)
	}
	then, err := tr.block(s.Then, inEntry)
	if err != nil {
		return nil, err
	}
	out := &glsl.IfStmt{Pos: s.Pos, Cond: cond, Then: then}
	switch els := s.Else.(type) {
	case nil:
	case *BlockStmt:
		b, err := tr.block(els, inEntry)
		if err != nil {
			return nil, err
		}
		out.Else = b
	case *IfStmt:
		chain, err := tr.ifStmt(els, inEntry)
		if err != nil {
			return nil, err
		}
		out.Else = chain[0]
	default:
		return nil, errf(s.Pos, "unsupported else form %T", s.Else)
	}
	return []glsl.Stmt{out}, nil
}

// forStmt translates `for`, keeping the canonical counted shape intact so
// the shared lowering recognizes it and the Unroll pass can fire on MSL
// loops exactly as on the other frontends.
func (tr *translator) forStmt(s *ForStmt, inEntry bool) ([]glsl.Stmt, error) {
	tr.pushScope()
	defer tr.popScope()
	out := &glsl.ForStmt{Pos: s.Pos}
	if s.Init != nil {
		init, err := tr.stmt(s.Init, inEntry)
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
		post, err := tr.stmt(s.Post, inEntry)
		if err != nil {
			return nil, err
		}
		if len(post) != 1 {
			return nil, errf(s.Pos, "unsupported for-loop post statement")
		}
		out.Post = post[0]
	}
	body, err := tr.block(s.Body, inEntry)
	if err != nil {
		return nil, err
	}
	out.Body = body
	return []glsl.Stmt{out}, nil
}
