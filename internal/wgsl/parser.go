package wgsl

import (
	"shaderopt/internal/bind"
	"shaderopt/internal/lex"
)

// grammar is WGSL's share of the statement and expression grammar the
// frontends share: let and var declarations, optional parentheses around
// conditions, braced bodies, and templated constructors; no ?:, methods,
// prefix increments or %=.
var grammar = bind.Grammar{
	IntSuffix:   "iu",
	FloatSuffix: "fh",
	Blocks:      true,
	DeclStart: func(p *bind.Parser) bool {
		return p.At("let") || p.At("const") || p.At("var")
	},
	Decl:    localDecl,
	Primary: templatedCtor,
}

// Parse parses a complete WGSL module.
func Parse(src string) (*Module, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	p := bind.NewParser(toks, &grammar)
	m := &Module{}
	for p.Cur().Kind != lex.EOF && len(p.Errs) <= 8 {
		if d := parseDecl(p); d != nil {
			m.Decls = append(m.Decls, d)
		}
	}
	if len(p.Errs) > 0 {
		return nil, p.Errs[0]
	}
	return m, nil
}

// --- Declarations ---

func parseDecl(p *bind.Parser) Decl {
	if p.Accept(";") {
		return nil
	}
	attrs := parseAttrs(p)
	t := p.Cur()
	if t.Kind != lex.Keyword {
		p.Errorf(t.Pos, "expected declaration, found %s", t)
		p.Sync()
		return nil
	}
	switch t.Text {
	case "enable", "requires", "diagnostic":
		// Directives are accepted and dropped; they do not affect the subset.
		p.Sync()
		return nil
	case "fn":
		return parseFn(p, attrs)
	case "var":
		return parseGlobalVar(p, attrs)
	case "const", "let", "override":
		return parseConstDecl(p)
	case "struct", "alias", "const_assert":
		p.Errorf(t.Pos, "%s declarations are outside the supported subset", t.Text)
		p.Sync()
		return nil
	}
	p.Errorf(t.Pos, "unexpected keyword %q at module scope", t.Text)
	p.Sync()
	return nil
}

// parseAttrs parses a run of @name or @name(args) attributes.
func parseAttrs(p *bind.Parser) []Attr {
	var out []Attr
	for p.At("@") {
		at := p.Next()
		nm := p.Cur()
		if nm.Kind != lex.Ident && nm.Kind != lex.Keyword {
			p.Errorf(nm.Pos, "expected attribute name after '@', found %s", nm)
			return out
		}
		p.Next()
		a := Attr{Pos: at.Pos, Name: nm.Text}
		if p.Accept("(") {
			for !p.Accept(")") {
				if p.Cur().Kind == lex.EOF {
					p.Errorf(p.Cur().Pos, "unterminated attribute %q", a.Name)
					return out
				}
				tok := p.Next()
				if tok.Kind == lex.Punct && tok.Text == "," {
					continue
				}
				a.Args = append(a.Args, tok.Text)
			}
		}
		out = append(out, a)
	}
	return out
}

// parseGlobalVar parses `var<space> name: type = init;` at module scope.
func parseGlobalVar(p *bind.Parser, attrs []Attr) Decl {
	t := p.Expect("var")
	space := ""
	if p.Accept("<") {
		sp := p.Cur()
		if sp.Kind != lex.Ident && sp.Kind != lex.Keyword {
			p.Errorf(sp.Pos, "expected address space, found %s", sp)
		} else {
			space = sp.Text
			p.Next()
		}
		// Optional access mode (var<storage, read> style).
		if p.Accept(",") {
			p.Next()
		}
		p.Expect(">")
	}
	name, ok := p.Ident("variable name")
	if !ok {
		p.Sync()
		return nil
	}
	var ty *bind.TypeExpr
	if p.Accept(":") {
		ty = parseType(p)
	}
	var init bind.Expr
	if p.Accept("=") {
		init = p.Expr()
	}
	p.Expect(";")
	return &GlobalVar{Pos: t.Pos, Attrs: attrs, AddressSpace: space, Name: name.Text, Type: ty, Init: init}
}

// parseConstDecl parses module-scope `const name [: type] = init;`.
func parseConstDecl(p *bind.Parser) Decl {
	t := p.Next() // const / let / override
	name, ok := p.Ident("constant name")
	if !ok {
		p.Sync()
		return nil
	}
	var ty *bind.TypeExpr
	if p.Accept(":") {
		ty = parseType(p)
	}
	p.Expect("=")
	init := p.Expr()
	p.Expect(";")
	return &ConstDecl{Pos: t.Pos, Name: name.Text, Type: ty, Init: init}
}

func parseFn(p *bind.Parser, attrs []Attr) Decl {
	t := p.Expect("fn")
	name, ok := p.Ident("function name")
	if !ok {
		p.Sync()
		return nil
	}
	fn := &FnDecl{Pos: t.Pos, Attrs: attrs, Name: name.Text}
	p.Expect("(")
	if !p.Accept(")") {
		for {
			prm, ok := parseParam(p)
			if !ok {
				p.Sync()
				return nil
			}
			fn.Params = append(fn.Params, prm)
			if p.Accept(")") {
				break
			}
			p.Expect(",")
		}
	}
	if p.Accept("->") {
		fn.RetAttrs = parseAttrs(p)
		fn.Ret = parseType(p)
	}
	fn.Body = p.Block()
	return fn
}

func parseParam(p *bind.Parser) (Param, bool) {
	var prm Param
	prm.Attrs = parseAttrs(p)
	nm, ok := p.Ident("parameter name")
	if !ok {
		return prm, false
	}
	prm.Name = nm.Text
	p.Expect(":")
	prm.Type = parseType(p)
	return prm, prm.Type != nil
}

// parseType parses a (possibly templated) type reference.
func parseType(p *bind.Parser) *bind.TypeExpr {
	t := p.Cur()
	if t.Kind != lex.Ident {
		p.Errorf(t.Pos, "expected type, found %s", t)
		return nil
	}
	p.Next()
	te := &bind.TypeExpr{Pos: t.Pos, Name: t.Text}
	if p.Accept("<") {
		if !p.Nest() {
			return te
		}
		defer p.Unnest()
		te.Elem = parseType(p)
		if p.Accept(",") {
			te.Len = p.ArrayLen(false)
		}
		p.Expect(">")
	}
	return te
}

// localDecl parses a `let`, `const` or `var` declaration without its ';'.
func localDecl(p *bind.Parser) bind.Stmt {
	t := p.Next()
	what := "name after var"
	switch t.Text {
	case "let":
		what = `name after "let"`
	case "const":
		what = `name after "const"`
	}
	nm, ok := p.Ident(what)
	if !ok {
		p.Sync()
		return nil
	}
	d := &bind.DeclStmt{Pos: t.Pos, Const: t.Text != "var", Name: nm.Text}
	if p.Accept(":") {
		d.Type = parseType(p)
	}
	if d.Const {
		p.Expect("=")
		d.Init = p.Expr()
	} else if p.Accept("=") {
		d.Init = p.Expr()
	}
	if d.Type == nil && d.Init == nil {
		p.Errorf(t.Pos, "var %q needs a type or an initializer", nm.Text)
	}
	return d
}

// templatedCtor parses a templated constructor call, vec4<f32>(...) or
// array<f32, 9>(...).
func templatedCtor(p *bind.Parser) (bind.Expr, bool) {
	t, next := p.Cur(), p.PeekTok(1)
	if !isTemplatedName(t.Text) || next.Kind != lex.Punct || next.Text != "<" {
		return nil, false
	}
	ty := parseType(p)
	return &bind.CallExpr{Pos: t.Pos, Callee: t.Text, TypeArg: ty, Args: p.Args(t.Text)}, true
}

// isTemplatedName reports whether an identifier followed by '<' starts a
// templated constructor rather than a less-than comparison. Only names
// that actually resolve as templated types qualify — a variable that
// merely starts with "mat" (matte, material) stays a comparison operand.
func isTemplatedName(name string) bool {
	switch name {
	case "array", "vec2", "vec3", "vec4":
		return true
	}
	_, ok := matAlias(name)
	return ok
}
