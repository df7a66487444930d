package wgsl

import (
	"fmt"

	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/lex"
	"shaderopt/internal/lower"
	"shaderopt/internal/naming"
	"shaderopt/internal/sem"
)

// Compile parses WGSL source and lowers it to an IR program.
func Compile(src, name string) (*ir.Program, error) {
	m, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return Lower(m, name)
}

// Lower binds and lowers a parsed WGSL module into the optimizer IR. The
// module's @fragment entry point becomes the program body; helper
// functions are inlined by the shared lowering, exactly as for GLSL input,
// so every downstream stage (passes, codegen, harness, cost models) is
// frontend-independent.
func Lower(m *Module, name string) (*ir.Program, error) {
	sh, err := Translate(m)
	if err != nil {
		return nil, err
	}
	return lower.Lower(sh, name)
}

// Translate binds a WGSL module and desugars it into the compiler's
// canonical surface form (the checked GLSL AST): entry-point parameters
// become `in` interface globals, the attributed return value becomes an
// `out` global, texture/sampler pairs collapse into combined samplers, and
// WGSL builtins are renamed to their canonical equivalents. Type inference
// for `let`/`var` bindings happens here, against the sem type system.
func Translate(m *Module) (*glsl.Shader, error) {
	tr := &translator{
		names:    naming.New("_w"),
		fnRet:    map[string]sem.Type{},
		samplers: map[string]bool{},
	}
	return tr.module(m)
}

// translator carries the binding state of one module translation. Value
// scopes are keyed by the ORIGINAL WGSL name with the sanitized GLSL
// spelling riding along in each binding (see naming.Scopes), and all
// spelling decisions live in the shared naming.Namer with this
// frontend's "_w" escape suffix.
type translator struct {
	sh     *glsl.Shader
	scopes naming.Scopes // original WGSL name -> GLSL spelling + type
	names  *naming.Namer // module-scope renames and reservations

	fnRet    map[string]sem.Type // helper function return types
	samplers map[string]bool     // WGSL sampler bindings (dropped in GLSL)
	entry    *FnDecl
}

func (tr *translator) pushScope() { tr.scopes.Push() }
func (tr *translator) popScope()  { tr.scopes.Pop() }

func (tr *translator) bind(orig, glslName string, t sem.Type) {
	tr.scopes.Bind(orig, glslName, t)
}

func (tr *translator) lookup(orig string) (naming.Binding, bool) {
	return tr.scopes.Lookup(orig)
}

// rename maps a WGSL identifier to a GLSL-safe one: names that collide
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
		return nil, fmt.Errorf("module has no @fragment entry point")
	}
	tr.names.Reserve("main")
	tr.pushScope() // module scope
	defer tr.popScope()

	// Pre-bind helper signatures so calls ahead of the declaration and
	// let-inference across functions both resolve.
	for _, f := range m.Fns() {
		if f == tr.entry {
			continue
		}
		ret := sem.Void
		if f.Ret != nil {
			t, err := tr.resolveType(f.Ret)
			if err != nil {
				return nil, errf(f.Pos, "fn %s: %v", f.Name, err)
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
		case *ConstDecl:
			if err := tr.constDecl(d); err != nil {
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

func (tr *translator) globalVar(d *GlobalVar) error {
	if d.Type == nil {
		return errf(d.Pos, "module-scope var %q needs an explicit type", d.Name)
	}
	if d.Type.Name == "sampler" || d.Type.Name == "sampler_comparison" {
		// Separate sampler state collapses into the combined GLSL sampler;
		// the binding only legalizes textureSample call sites.
		tr.samplers[d.Name] = true
		return nil
	}
	t, err := tr.resolveType(d.Type)
	if err != nil {
		return errf(d.Pos, "var %s: %v", d.Name, err)
	}
	spec, err := semToSpec(t)
	if err != nil {
		return errf(d.Pos, "var %s: %v", d.Name, err)
	}
	name := tr.rename(d.Name)
	g := &glsl.GlobalVar{Type: spec, Name: name}
	switch d.AddressSpace {
	case "uniform":
		g.Qual = glsl.QualUniform
	case "", "private":
		if t.IsSampler() {
			g.Qual = glsl.QualUniform // texture binding
			break
		}
		g.Qual = glsl.QualNone
		if d.Init != nil {
			init, _, err := tr.expr(d.Init)
			if err != nil {
				return err
			}
			g.Init = init
		}
	default:
		return errf(d.Pos, "address space %q is outside the supported subset", d.AddressSpace)
	}
	if a, ok := FindAttr(d.Attrs, "binding"); ok && len(a.Args) == 1 {
		g.Layout = "binding = " + a.Args[0]
	}
	tr.sh.Decls = append(tr.sh.Decls, g)
	tr.bind(d.Name, name, t)
	return nil
}

func (tr *translator) constDecl(d *ConstDecl) error {
	init, it, err := tr.expr(d.Init)
	if err != nil {
		return err
	}
	t := it
	if d.Type != nil {
		if t, err = tr.resolveType(d.Type); err != nil {
			return errf(d.Pos, "const %s: %v", d.Name, err)
		}
	}
	spec, err := semToSpec(t)
	if err != nil {
		return errf(d.Pos, "const %s: %v", d.Name, err)
	}
	name := tr.rename(d.Name)
	tr.sh.Decls = append(tr.sh.Decls, &glsl.GlobalVar{
		Qual: glsl.QualConst, Type: spec, Name: name, Init: init,
	})
	tr.bind(d.Name, name, t)
	return nil
}

// helperFn translates a non-entry function into a GLSL function; the
// shared lowering inlines it at each call site.
func (tr *translator) helperFn(d *FnDecl) error {
	ret := glsl.Scalar("void")
	if d.Ret != nil {
		t, err := tr.resolveType(d.Ret)
		if err != nil {
			return errf(d.Pos, "fn %s: %v", d.Name, err)
		}
		if ret, err = semToSpec(t); err != nil {
			return errf(d.Pos, "fn %s: %v", d.Name, err)
		}
	}
	fn := &glsl.FuncDecl{Return: ret, Name: tr.rename(d.Name)}
	tr.pushScope()
	defer tr.popScope()
	for _, p := range d.Params {
		t, err := tr.resolveType(p.Type)
		if err != nil {
			return errf(d.Pos, "fn %s param %s: %v", d.Name, p.Name, err)
		}
		spec, err := semToSpec(t)
		if err != nil {
			return errf(d.Pos, "fn %s param %s: %v", d.Name, p.Name, err)
		}
		// Parameters shadow module names; bind without the module rename map.
		pn := tr.localName(p.Name)
		fn.Params = append(fn.Params, glsl.Param{Type: spec, Name: pn})
		tr.bind(p.Name, pn, t)
	}
	body, err := tr.block(d.Body, nil)
	if err != nil {
		return fmt.Errorf("fn %s: %w", d.Name, err)
	}
	fn.Body = body
	tr.sh.Decls = append(tr.sh.Decls, fn)
	return nil
}

// entryFn translates the @fragment entry point into void main():
// attributed parameters become `in` globals, the attributed return type
// becomes an `out` global, and valued returns store to it.
func (tr *translator) entryFn(d *FnDecl) error {
	var outVar string
	if d.Ret != nil {
		t, err := tr.resolveType(d.Ret)
		if err != nil {
			return errf(d.Pos, "entry return: %v", err)
		}
		spec, err := semToSpec(t)
		if err != nil {
			return errf(d.Pos, "entry return: %v", err)
		}
		// The synthesized out variable is not a source identifier: reserve
		// a fresh module-level name and keep it out of the value scopes
		// (only the return desugaring refers to it, by this exact
		// spelling — no WGSL expression can name it).
		outVar = tr.freshName("fragColor")
		g := &glsl.GlobalVar{Qual: glsl.QualOut, Type: spec, Name: outVar}
		if a, ok := FindAttr(d.RetAttrs, "location"); ok && len(a.Args) == 1 {
			g.Layout = "location = " + a.Args[0]
		}
		tr.sh.Decls = append(tr.sh.Decls, g)
	}
	tr.pushScope()
	defer tr.popScope()
	for _, p := range d.Params {
		t, err := tr.resolveType(p.Type)
		if err != nil {
			return errf(d.Pos, "entry param %s: %v", p.Name, err)
		}
		spec, err := semToSpec(t)
		if err != nil {
			return errf(d.Pos, "entry param %s: %v", p.Name, err)
		}
		name := tr.rename(p.Name)
		g := &glsl.GlobalVar{Qual: glsl.QualIn, Type: spec, Name: name}
		if a, ok := FindAttr(p.Attrs, "location"); ok && len(a.Args) == 1 {
			g.Layout = "location = " + a.Args[0]
		}
		tr.sh.Decls = append(tr.sh.Decls, g)
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
// original WGSL name, so the suffixed spelling rides along in the
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
	case *LetStmt:
		d, err := tr.declStmt(s.Pos, s.Name, s.Type, s.Init, true)
		if err != nil {
			return nil, err
		}
		return []glsl.Stmt{d}, nil
	case *VarStmt:
		d, err := tr.declStmt(s.Pos, s.Name, s.Type, s.Init, false)
		if err != nil {
			return nil, err
		}
		return []glsl.Stmt{d}, nil
	case *AssignStmt:
		lhs, _, err := tr.expr(s.LHS)
		if err != nil {
			return nil, err
		}
		rhs, _, err := tr.expr(s.RHS)
		if err != nil {
			return nil, err
		}
		return []glsl.Stmt{&glsl.AssignStmt{Pos: s.Pos, LHS: lhs, Op: s.Op, RHS: rhs}}, nil
	case *IfStmt:
		return tr.ifStmt(s, entryOut)
	case *ForStmt:
		return tr.forStmt(s, entryOut)
	case *WhileStmt:
		cond, _, err := tr.expr(s.Cond)
		if err != nil {
			return nil, err
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
		res, _, err := tr.expr(s.Result)
		if err != nil {
			return nil, err
		}
		if entryOut != nil {
			// Entry point: store the fragment output, then return void.
			if *entryOut == "" {
				return nil, errf(s.Pos, "entry point returns a value but declares no return type")
			}
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
		x, _, err := tr.expr(s.X)
		if err != nil {
			return nil, err
		}
		return []glsl.Stmt{&glsl.ExprStmt{Pos: s.Pos, X: x}}, nil
	}
	return nil, fmt.Errorf("unknown statement %T", s)
}

func (tr *translator) declStmt(p lex.Pos, name string, ty *TypeExpr, init Expr, isLet bool) (*glsl.DeclStmt, error) {
	var gInit glsl.Expr
	var it sem.Type
	var err error
	if init != nil {
		gInit, it, err = tr.expr(init)
		if err != nil {
			return nil, err
		}
	}
	t := it
	if ty != nil {
		if t, err = tr.resolveType(ty); err != nil {
			return nil, errf(p, "%s %s: %v", kindWord(isLet), name, err)
		}
	} else if init == nil {
		return nil, errf(p, "%s %q needs a type or an initializer", kindWord(isLet), name)
	}
	spec, err := semToSpec(t)
	if err != nil {
		return nil, errf(p, "%s %s: %v", kindWord(isLet), name, err)
	}
	ln := tr.localName(name)
	tr.bind(name, ln, t)
	return &glsl.DeclStmt{Pos: p, Const: isLet, Type: spec, Name: ln, Init: gInit}, nil
}

func kindWord(isLet bool) string {
	if isLet {
		return "let"
	}
	return "var"
}

func (tr *translator) ifStmt(s *IfStmt, entryOut *string) ([]glsl.Stmt, error) {
	cond, _, err := tr.expr(s.Cond)
	if err != nil {
		return nil, err
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

// forStmt translates WGSL `for`, keeping the canonical counted shape
// (`for (var i = 0; i < N; i++)`) intact so the shared lowering recognizes
// it and the Unroll pass can fire on WGSL loops exactly as on GLSL ones.
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
		cond, _, err := tr.expr(s.Cond)
		if err != nil {
			return nil, err
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
