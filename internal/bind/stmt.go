package bind

import (
	"fmt"

	"shaderopt/internal/glsl"
	"shaderopt/internal/lex"
	"shaderopt/internal/sem"
)

// Body translates a function body. out is nil for a helper function; for
// the entry point it names the synthesized output variable ("" when the
// entry declares none), and `return x` desugars into a store to it
// followed by a bare return.
func (b *Binder) Body(body *BlockStmt, out *string) (*glsl.BlockStmt, error) {
	b.out = out
	return b.Block(body)
}

// Helper is a helper function as the binder translates it: every
// function but the entry point.
type Helper struct {
	Pos    lex.Pos
	Name   string
	Ret    *TypeExpr // nil when the function returns nothing
	Params []Param
	Body   *BlockStmt
}

// Param is a helper function parameter. Illegal, when set, says why the
// parameter cannot appear on a helper; it is reported before its type
// resolves.
type Param struct {
	Name    string
	Type    *TypeExpr
	Illegal string
}

// Signatures binds every helper's return type before any body
// translates, so a call ahead of its callee's declaration resolves. A
// helper named like a constructor, conversion, builtin or one of the
// language's own calls is rejected: call resolves those names first, so
// the helper's calls would silently run the builtin instead.
func (b *Binder) Signatures(fns []Helper) error {
	for _, f := range fns {
		_, ctor := b.lang.Ctor(f.Name)
		if _, renamed := b.lang.Renames[f.Name]; ctor || renamed || b.lang.OwnCalls[f.Name] || sem.IsBuiltin(f.Name) {
			return Errf(f.Pos, "%s %s: shadows the builtin %s", b.lang.FnWord, f.Name, f.Name)
		}
		ret := sem.Void
		if f.Ret != nil {
			t, err := b.lang.Resolve(f.Ret)
			if err != nil {
				return Errf(f.Pos, "%s %s: %v", b.lang.FnWord, f.Name, err)
			}
			ret = t
		}
		b.FnRet[b.Rename(f.Name)] = ret
	}
	return nil
}

// Helper translates a helper function into a GLSL function; the shared
// lowering inlines it at each call site.
func (b *Binder) Helper(f Helper) error {
	word := b.lang.FnWord
	fn := &glsl.FuncDecl{Return: glsl.Scalar("void"), Name: b.Rename(f.Name)}
	if f.Ret != nil {
		t, err := b.lang.Resolve(f.Ret)
		if err != nil {
			return Errf(f.Pos, "%s %s: %v", word, f.Name, err)
		}
		if fn.Return, err = SemToSpec(t); err != nil {
			return Errf(f.Pos, "%s %s: %v", word, f.Name, err)
		}
	}
	b.CurRet = b.FnRet[fn.Name]
	b.Push()
	defer b.Pop()
	for _, p := range f.Params {
		if p.Illegal != "" {
			return Errf(f.Pos, "%s %s: %s", word, f.Name, p.Illegal)
		}
		t, err := b.lang.Resolve(p.Type)
		if err != nil {
			return Errf(f.Pos, "%s %s param %s: %v", word, f.Name, p.Name, err)
		}
		if t.IsSampler() && b.lang.NoTextureParams {
			return Errf(f.Pos, "%s %s param %s: texture parameters are outside the supported subset", word, f.Name, p.Name)
		}
		spec, err := SemToSpec(t)
		if err != nil {
			return Errf(f.Pos, "%s %s param %s: %v", word, f.Name, p.Name, err)
		}
		// Parameters shadow module names; bind without the module rename map.
		pn := b.Local(p.Name)
		fn.Params = append(fn.Params, glsl.Param{Type: spec, Name: pn})
		b.Bind(p.Name, pn, t)
	}
	body, err := b.Body(f.Body, nil)
	if err != nil {
		return fmt.Errorf("%s %s: %w", word, f.Name, err)
	}
	fn.Body = body
	b.Sh.Decls = append(b.Sh.Decls, fn)
	return nil
}

// InEntry reports whether the entry point's body is being translated.
func (b *Binder) InEntry() bool { return b.out != nil }

// Block translates a statement block in a scope of its own.
func (b *Binder) Block(blk *BlockStmt) (*glsl.BlockStmt, error) {
	b.Push()
	defer b.Pop()
	out := &glsl.BlockStmt{Pos: blk.Pos}
	for _, s := range blk.Stmts {
		gs, err := b.stmt(s)
		if err != nil {
			return nil, err
		}
		out.Stmts = append(out.Stmts, gs...)
	}
	return out, nil
}

func (b *Binder) stmt(s Stmt) ([]glsl.Stmt, error) {
	if gs, ok, err := b.lang.Own.OwnStmt(s); ok || err != nil {
		return gs, err
	}
	switch s := s.(type) {
	case *BlockStmt:
		blk, err := b.Block(s)
		if err != nil {
			return nil, err
		}
		return []glsl.Stmt{blk}, nil
	case *DeclStmt:
		d, err := b.declStmt(s)
		if err != nil {
			return nil, err
		}
		return []glsl.Stmt{d}, nil
	case *AssignStmt:
		lhs, lt, err := b.Expr(s.LHS)
		if err != nil {
			return nil, err
		}
		rhs, rt, err := b.Expr(s.RHS)
		if err != nil {
			return nil, err
		}
		rhs, rt = b.Promote(rhs, rt, lt)
		if s.Op == "=" && !rt.Equal(lt) {
			return nil, Errf(s.Pos, "cannot assign %s to %s", rt, lt)
		}
		return []glsl.Stmt{&glsl.AssignStmt{Pos: s.Pos, LHS: lhs, Op: s.Op, RHS: rhs}}, nil
	case *IfStmt:
		st, err := b.ifStmt(s)
		if err != nil {
			return nil, err
		}
		return []glsl.Stmt{st}, nil
	case *ForStmt:
		return b.forStmt(s)
	case *WhileStmt:
		cond, err := b.cond(s.Cond, "while", s.Pos)
		if err != nil {
			return nil, err
		}
		body, err := b.Block(s.Body)
		if err != nil {
			return nil, err
		}
		return []glsl.Stmt{&glsl.WhileStmt{Pos: s.Pos, Cond: cond, Body: body}}, nil
	case *ReturnStmt:
		return b.returnStmt(s)
	case *DiscardStmt:
		return []glsl.Stmt{&glsl.DiscardStmt{Pos: s.Pos}}, nil
	case *BreakStmt:
		return []glsl.Stmt{&glsl.BreakStmt{Pos: s.Pos}}, nil
	case *ContinueStmt:
		return []glsl.Stmt{&glsl.ContinueStmt{Pos: s.Pos}}, nil
	case *ExprStmt:
		x, _, err := b.Expr(s.X)
		if err != nil {
			return nil, err
		}
		return []glsl.Stmt{&glsl.ExprStmt{Pos: s.Pos, X: x}}, nil
	}
	return nil, fmt.Errorf("unknown statement %T", s)
}

// cond translates a statement's condition, which must be a bool.
func (b *Binder) cond(e Expr, what string, p lex.Pos) (glsl.Expr, error) {
	x, t, err := b.Expr(e)
	if err != nil {
		return nil, err
	}
	if !t.Equal(sem.Bool) {
		return nil, Errf(p, "%s condition must be bool, got %s", what, t)
	}
	return x, nil
}

func (b *Binder) returnStmt(s *ReturnStmt) ([]glsl.Stmt, error) {
	if s.Result == nil {
		return []glsl.Stmt{&glsl.ReturnStmt{Pos: s.Pos}}, nil
	}
	res, rt, err := b.Expr(s.Result)
	if err != nil {
		return nil, err
	}
	// `return 0;` from a float function is legal HLSL and MSL: apply the
	// same int→float promotion every other value position gets.
	res, _ = b.Promote(res, rt, b.CurRet)
	if b.out == nil {
		return []glsl.Stmt{&glsl.ReturnStmt{Pos: s.Pos, Result: res}}, nil
	}
	if *b.out == "" {
		return nil, Errf(s.Pos, "entry point returns a value but declares no return type")
	}
	// Entry point: store the fragment output, then return void.
	return []glsl.Stmt{
		&glsl.AssignStmt{Pos: s.Pos, LHS: &glsl.IdentExpr{Name: *b.out}, Op: "=", RHS: res},
		&glsl.ReturnStmt{Pos: s.Pos},
	}, nil
}

// declStmt translates a local declaration. The declared type, when
// present, resolves before the initializer translates, so a brace list
// can be checked against it; the name binds after, so an initializer
// that mentions it sees the outer binding.
func (b *Binder) declStmt(s *DeclStmt) (*glsl.DeclStmt, error) {
	word := b.lang.DeclWords[0]
	if s.Const {
		word = b.lang.DeclWords[1]
	}
	var t sem.Type
	if s.Type != nil {
		var err error
		if t, err = b.lang.Resolve(s.Type); err != nil {
			return nil, Errf(s.Pos, "%s%s: %v", word, s.Name, err)
		}
	} else if s.Init == nil {
		return nil, Errf(s.Pos, "%s%q needs a type or an initializer", word, s.Name)
	}
	var gInit glsl.Expr
	if s.Init != nil {
		init, it, err := b.Initializer(s.Init, t)
		if err != nil {
			return nil, err
		}
		if s.Type == nil {
			t = it
		}
		init, it = b.Promote(init, it, t)
		if !it.Equal(t) {
			return nil, Errf(s.Pos, "cannot initialize %s %s with %s", t, s.Name, it)
		}
		gInit = init
	}
	spec, err := SemToSpec(t)
	if err != nil {
		return nil, Errf(s.Pos, "%s%s: %v", word, s.Name, err)
	}
	ln := b.Local(s.Name)
	b.Bind(s.Name, ln, t)
	return &glsl.DeclStmt{Pos: s.Pos, Const: s.Const, Type: spec, Name: ln, Init: gInit}, nil
}

// Initializer translates a declaration initializer: a brace list becomes
// a GLSL array constructor checked against the declared array type; any
// other expression translates normally.
func (b *Binder) Initializer(e Expr, declared sem.Type) (glsl.Expr, sem.Type, error) {
	lst, ok := e.(*InitListExpr)
	if !ok {
		return b.Expr(e)
	}
	if !declared.IsArray() {
		return nil, sem.Void, Errf(lst.Pos, "brace initializers are only supported for arrays")
	}
	elem := declared.Elem()
	if declared.ArrayLen != len(lst.Elems) {
		return nil, sem.Void, Errf(lst.Pos, "%s initialized with %d elements", declared, len(lst.Elems))
	}
	spec, err := SemToSpec(elem)
	if err != nil {
		return nil, sem.Void, Errf(lst.Pos, "%v", err)
	}
	elems := make([]glsl.Expr, len(lst.Elems))
	for i, el := range lst.Elems {
		x, xt, err := b.Expr(el)
		if err != nil {
			return nil, sem.Void, err
		}
		x, xt = b.Promote(x, xt, elem)
		if !xt.Equal(elem) {
			return nil, sem.Void, Errf(lst.Pos, "initializer element %d has type %s, want %s", i+1, xt, elem)
		}
		elems[i] = x
	}
	return &glsl.ArrayCtorExpr{Pos: lst.Pos, Elem: spec, Len: len(elems), Elems: elems},
		declared, nil
}

func (b *Binder) ifStmt(s *IfStmt) (*glsl.IfStmt, error) {
	cond, err := b.cond(s.Cond, "if", s.Pos)
	if err != nil {
		return nil, err
	}
	then, err := b.Block(s.Then)
	if err != nil {
		return nil, err
	}
	out := &glsl.IfStmt{Pos: s.Pos, Cond: cond, Then: then}
	switch els := s.Else.(type) {
	case nil:
	case *BlockStmt:
		if out.Else, err = b.Block(els); err != nil {
			return nil, err
		}
	case *IfStmt:
		if out.Else, err = b.ifStmt(els); err != nil {
			return nil, err
		}
	default:
		return nil, Errf(s.Pos, "unsupported else form %T", s.Else)
	}
	return out, nil
}

// forStmt keeps the canonical counted shape (`for (int i = 0; i < N;
// i++)`) intact so the shared lowering recognizes it and the Unroll pass
// fires on HLSL, WGSL and MSL loops exactly as on GLSL ones.
func (b *Binder) forStmt(s *ForStmt) ([]glsl.Stmt, error) {
	b.Push()
	defer b.Pop()
	out := &glsl.ForStmt{Pos: s.Pos}
	if s.Init != nil {
		init, err := b.stmt(s.Init)
		if err != nil {
			return nil, err
		}
		if len(init) != 1 {
			return nil, Errf(s.Pos, "unsupported for-loop initializer")
		}
		out.Init = init[0]
	}
	if s.Cond != nil {
		cond, err := b.cond(s.Cond, "for", s.Pos)
		if err != nil {
			return nil, err
		}
		out.Cond = cond
	}
	if s.Post != nil {
		post, err := b.stmt(s.Post)
		if err != nil {
			return nil, err
		}
		if len(post) != 1 {
			return nil, Errf(s.Pos, "unsupported for-loop post statement")
		}
		out.Post = post[0]
	}
	body, err := b.Block(s.Body)
	if err != nil {
		return nil, err
	}
	out.Body = body
	return []glsl.Stmt{out}, nil
}
