package msl

import (
	"fmt"
	"strconv"
	"strings"

	"shaderopt/internal/bind"
	"shaderopt/internal/lex"
)

// grammar is MSL's share of the statement and expression grammar the
// frontends share: C statements with ?:, texture methods, %= and typed
// array<T, N>{...} literals, no bare blocks, and the leniencies of its
// emitted dialect (trailing argument commas; see bind.Grammar).
var grammar = bind.Grammar{
	CStyle:        true,
	Ternary:       true,
	Methods:       true,
	ModAssign:     true,
	TrailingComma: true,
	UnaryIncDec:   true,
	DeclStart:     startsDecl,
	Decl: func(p *bind.Parser) bind.Stmt {
		pos := p.Cur().Pos
		return p.CDecl(pos, p.Accept("const"))
	},
	Type:    parseType,
	Primary: arrayLiteral,
}

// Parse parses an MSL module. The module keeps no token, so Parse scans
// into a recycled token slice and hands it back on return.
func Parse(src string) (*Module, error) {
	toks, err := lexWith(lex.NewRecycledScanner(src, presize(src)))
	defer lex.Recycle(toks)
	if err != nil {
		return nil, err
	}
	p := bind.NewParser(toks, &grammar)
	m := &Module{}
	for p.Cur().Kind != lex.EOF && len(p.Errs) == 0 {
		if d := parseDecl(p); d != nil {
			m.Decls = append(m.Decls, d)
		}
	}
	if len(p.Errs) > 0 {
		return nil, fmt.Errorf("msl: %w", p.Errs[0])
	}
	return m, nil
}

// --- declarations ---

func parseDecl(p *bind.Parser) Decl {
	t := p.Cur()
	if t.Kind == lex.Keyword {
		switch t.Text {
		case "using":
			// using namespace metal;
			for p.Cur().Kind != lex.EOF && !p.At(";") {
				p.Next()
			}
			p.Accept(";")
			return nil
		case "template":
			// Template helper (the glsl_ prelude): skip the whole definition.
			skipTemplate(p)
			return nil
		case "struct":
			return parseStruct(p)
		case "constant":
			return parseGlobalVar(p)
		case "static", "inline", "fragment", "vertex", "kernel":
			return parseFn(p)
		}
		p.Errorf(t.Pos, "unexpected keyword %q at module scope", t.Text)
		return nil
	}
	if t.Kind == lex.Ident {
		// A plain function definition: Type Name ( ...
		return parseFn(p)
	}
	p.Errorf(t.Pos, "unexpected token %s at module scope", t)
	return nil
}

// skipTemplate consumes a template function definition by skipping to the
// first { and matching braces.
func skipTemplate(p *bind.Parser) {
	for p.Cur().Kind != lex.EOF && !p.At("{") {
		p.Next()
	}
	depth := 0
	for p.Cur().Kind != lex.EOF {
		t := p.Next()
		if t.Kind == lex.Punct && t.Text == "{" {
			depth++
		}
		if t.Kind == lex.Punct && t.Text == "}" {
			depth--
			if depth == 0 {
				return
			}
		}
	}
}

func parseStruct(p *bind.Parser) *StructDecl {
	st := &StructDecl{Pos: p.Next().Pos}
	st.Name = name(p, "struct name")
	p.Expect("{")
	for p.Cur().Kind != lex.EOF && !p.At("}") && len(p.Errs) == 0 {
		f := StructField{Type: parseType(p), Attr: Attr{Arg: -1}}
		f.Name = name(p, "field name")
		if p.At("[") && p.PeekTok(1).Text == "[" {
			f.Attr = parseAttr(p)
		} else {
			f.Type = p.ArraySuffix(f.Type) // a C-style array member
		}
		p.Expect(";")
		st.Fields = append(st.Fields, f)
	}
	p.Expect("}")
	p.Expect(";")
	return st
}

func parseGlobalVar(p *bind.Parser) *GlobalVar {
	g := &GlobalVar{Pos: p.Next().Pos}
	g.Type = parseType(p)
	g.Name = name(p, "constant name")
	if p.Accept("=") {
		g.Init = p.Expr()
	}
	p.Expect(";")
	return g
}

func parseFn(p *bind.Parser) *FnDecl {
	fn := &FnDecl{Pos: p.Cur().Pos}
quals:
	for t := p.Cur(); t.Kind == lex.Keyword; t = p.Cur() {
		switch t.Text {
		case "static", "inline":
		case "fragment":
			fn.Fragment = true
		case "vertex", "kernel":
			p.Errorf(t.Pos, "%s functions are outside the fragment-shader subset", t.Text)
			return nil
		default:
			break quals
		}
		p.Next()
	}
	fn.Ret = parseType(p)
	fn.Name = name(p, "function name")
	p.Expect("(")
	for p.Cur().Kind != lex.EOF && !p.At(")") {
		fn.Params = append(fn.Params, parseParam(p))
		if !p.Accept(",") {
			break
		}
	}
	p.Expect(")")
	fn.Body = p.Block()
	return fn
}

func parseParam(p *bind.Parser) Param {
	var pr Param
	switch {
	case p.At("constant"), p.At("device"), p.At("thread"):
		pr.Space = p.Next().Text
	case p.At("const"):
		p.Next()
	}
	pr.Type = parseType(p)
	pr.Ref = p.Accept("&")
	pr.Name = name(p, "parameter name")
	pr.Attr = Attr{Arg: -1}
	if p.At("[") && p.PeekTok(1).Text == "[" {
		pr.Attr = parseAttr(p)
	}
	return pr
}

// parseAttr parses one [[name]] or [[name(arg)]] attribute. user(locnN)
// arguments resolve to N.
func parseAttr(p *bind.Parser) Attr {
	p.Expect("[")
	p.Expect("[")
	a := Attr{Name: name(p, "attribute name"), Arg: -1}
	if p.Accept("(") {
		switch t := p.Cur(); t.Kind {
		case lex.IntLit:
			p.Next()
			n, err := strconv.Atoi(t.Text)
			if err != nil {
				p.Errorf(t.Pos, "bad attribute argument %q", t.Text)
			}
			a.Arg = n
		case lex.Ident:
			p.Next()
			if n, err := strconv.Atoi(strings.TrimPrefix(t.Text, "locn")); err == nil {
				a.Arg = n
			}
		default:
			p.Errorf(t.Pos, "bad attribute argument %s", t)
		}
		p.Expect(")")
	}
	p.Expect("]")
	p.Expect("]")
	return a
}

// parseType parses a type reference: Name, Name<Elem>, array<Elem, N>.
// A non-type records an error and parses as float, so a declaration's
// other parts still parse.
func parseType(p *bind.Parser) *bind.TypeExpr {
	t := p.Cur()
	if t.Kind != lex.Ident {
		p.Errorf(t.Pos, "expected type, found %s", t)
		return &bind.TypeExpr{Pos: t.Pos, Name: "float"}
	}
	p.Next()
	te := &bind.TypeExpr{Pos: t.Pos, Name: t.Text}
	if templatedType(t.Text) && p.Accept("<") {
		if !p.Nest() {
			return te
		}
		defer p.Unnest()
		te.Elem = parseType(p)
		if te.Name == "array" {
			p.Expect(",")
			te.Len = p.ArrayLen(false)
		}
		p.Expect(">")
	}
	return te
}

// templatedType reports whether a type name takes template arguments in
// the subset — texture types and array. Keeping this contextual avoids
// misparsing comparisons like `a < b`.
func templatedType(name string) bool {
	switch name {
	case "array", "texture2d", "texture3d", "texturecube", "depth2d", "texture2d_array":
		return true
	}
	return false
}

// name parses an identifier, what naming it in the error if missing.
func name(p *bind.Parser, what string) string {
	t, _ := p.Ident(what)
	return t.Text
}

// --- statements and expressions ---

// startsDecl reports whether the upcoming tokens are a local declaration:
// const, or a type name followed by an identifier (not an open paren,
// which would be a constructor-call expression). Struct types (the output
// struct) are not in the intrinsic table, so any `Ident Ident ;/=/[` run
// is a declaration too — no expression has two adjacent identifiers.
func startsDecl(p *bind.Parser) bool {
	t, next := p.Cur(), p.PeekTok(1)
	switch {
	case t.Kind == lex.Keyword:
		return t.Text == "const"
	case t.Kind != lex.Ident:
		return false
	case IsTypeName(t.Text):
		return next.Kind == lex.Ident || templatedType(t.Text) && next.Kind == lex.Punct && next.Text == "<"
	}
	after := p.PeekTok(2)
	return next.Kind == lex.Ident && after.Kind == lex.Punct && (after.Text == ";" || after.Text == "=" || after.Text == "[")
}

// arrayLiteral parses a typed array<T, N>{...} literal.
func arrayLiteral(p *bind.Parser) (bind.Expr, bool) {
	t, next := p.Cur(), p.PeekTok(1)
	if !templatedType(t.Text) || next.Kind != lex.Punct || next.Text != "<" {
		return nil, false
	}
	te := parseType(p)
	if te.Name != "array" {
		p.Errorf(p.Cur().Pos, "texture type %q cannot be constructed", te.Name)
		return &bind.IdentExpr{Pos: t.Pos, Name: "_"}, true
	}
	lit := p.BraceList()
	lit.Pos, lit.Type = t.Pos, te
	return lit, true
}
