package hlsl

import (
	"strings"

	"shaderopt/internal/bind"
	"shaderopt/internal/lex"
)

// grammar is HLSL's share of the statement and expression grammar the
// frontends share: C statements with ?:, resource methods, [unroll]-style
// statement attributes and unsized `[]` declarators.
var grammar = bind.Grammar{
	IntSuffix:   "uUlL",
	FloatSuffix: "fFhH",
	CStyle:      true,
	Ternary:     true,
	Methods:     true,
	Blocks:      true,
	Unsized:     true,
	DeclStart: func(p *bind.Parser) bool {
		t := p.Cur()
		return p.At("const") || p.At("static") ||
			t.Kind == lex.Ident && IsTypeName(t.Text) && p.PeekTok(1).Kind == lex.Ident
	},
	Decl:  localDecl,
	Type:  parseType,
	Attrs: skipStmtAttrs,
}

// Parse parses a complete HLSL module.
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
	t := p.Cur()
	if t.Kind == lex.Keyword {
		switch t.Text {
		case "cbuffer", "tbuffer":
			return parseCBuffer(p)
		case "static", "const", "uniform":
			return parseGlobalVar(p)
		case "struct", "typedef":
			p.Errorf(t.Pos, "%s declarations are outside the supported subset", t.Text)
			p.Sync()
			return nil
		}
		p.Errorf(t.Pos, "unexpected keyword %q at module scope", t.Text)
		p.Sync()
		return nil
	}
	if t.Kind == lex.Ident && IsTypeName(t.Text) {
		// `Type Name (` starts a function; anything else is a global.
		if p.PeekTok(1).Kind == lex.Ident && p.PeekTok(2).Kind == lex.Punct && p.PeekTok(2).Text == "(" {
			return parseFn(p)
		}
		return parseGlobalVar(p)
	}
	p.Errorf(t.Pos, "expected declaration, found %s", t)
	p.Sync()
	return nil
}

// parseAnnots parses a run of `: NAME` annotations after a declarator or
// function signature: semantics (TEXCOORD0, SV_Target) are returned as
// semantic, register(...) bindings as register; packoffset(...) is
// accepted and dropped.
func parseAnnots(p *bind.Parser) (semantic, register string) {
	for p.At(":") {
		p.Next()
		nm := p.Cur()
		if nm.Kind != lex.Ident && nm.Kind != lex.Keyword {
			p.Errorf(nm.Pos, "expected annotation after ':', found %s", nm)
			return
		}
		p.Next()
		switch nm.Text {
		case "register", "packoffset":
			p.Expect("(")
			var args []string
			for !p.Accept(")") {
				if p.Cur().Kind == lex.EOF {
					p.Errorf(p.Cur().Pos, "unterminated %s annotation", nm.Text)
					return
				}
				tok := p.Next()
				if tok.Kind == lex.Punct && tok.Text == "," {
					continue
				}
				args = append(args, tok.Text)
			}
			if nm.Text == "register" && len(args) > 0 {
				register = args[0]
			}
		default:
			semantic = nm.Text
		}
	}
	return
}

// parseCBuffer parses `cbuffer Name [: register(bN)] { members };`.
func parseCBuffer(p *bind.Parser) Decl {
	t := p.Next() // cbuffer / tbuffer
	name, ok := p.Ident("cbuffer name")
	if !ok {
		p.Sync()
		return nil
	}
	_, register := parseAnnots(p)
	d := &CBufferDecl{Pos: t.Pos, Name: name.Text, Register: register}
	p.Expect("{")
	for !p.Accept("}") {
		if p.Cur().Kind == lex.EOF {
			p.Errorf(p.Cur().Pos, "unterminated cbuffer %q", d.Name)
			return d
		}
		if p.Accept(";") {
			continue
		}
		ty := parseType(p)
		if ty == nil {
			p.Sync()
			continue
		}
		mn, ok := p.Ident("member name")
		if !ok {
			p.Sync()
			continue
		}
		ty = p.ArraySuffix(ty)
		parseAnnots(p) // packoffset is a layout detail; drop it
		p.Expect(";")
		d.Members = append(d.Members, CBufferMember{Pos: mn.Pos, Type: ty, Name: mn.Text})
	}
	p.Accept(";") // trailing semicolon is conventional but optional
	return d
}

// parseGlobalVar parses `[static] [const] [uniform] type name [N]
// [: register(...)] [= init];` at module scope.
func parseGlobalVar(p *bind.Parser) Decl {
	start := p.Cur().Pos
	var isStatic, isConst bool
	for {
		t := p.Cur()
		if t.Kind != lex.Keyword {
			break
		}
		switch t.Text {
		case "static":
			isStatic = true
		case "const":
			isConst = true
		case "uniform":
			// explicit uniform is the default storage for globals
		default:
			p.Errorf(t.Pos, "unexpected %q in global declaration", t.Text)
			p.Sync()
			return nil
		}
		p.Next()
	}
	ty := parseType(p)
	if ty == nil {
		p.Sync()
		return nil
	}
	name, ok := p.Ident("variable name")
	if !ok {
		p.Sync()
		return nil
	}
	ty = p.ArraySuffix(ty)
	_, register := parseAnnots(p)
	var init bind.Expr
	if p.Accept("=") {
		init = p.Initializer(ty)
	}
	p.Expect(";")
	return &GlobalVar{
		Pos: start, Static: isStatic, Const: isConst,
		Type: ty, Name: name.Text, Register: register, Init: init,
	}
}

func parseFn(p *bind.Parser) Decl {
	ret := parseType(p)
	name := p.Next() // checked Ident by the caller
	fn := &FnDecl{Pos: name.Pos, Ret: ret, Name: name.Text}
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
	fn.RetSemantic, _ = parseAnnots(p)
	fn.Body = p.Block()
	return fn
}

func parseParam(p *bind.Parser) (Param, bool) {
	var prm Param
	if t := p.Cur(); t.Kind == lex.Keyword && (t.Text == "in" || t.Text == "out" || t.Text == "inout") {
		prm.Qual = t.Text
		p.Next()
	}
	prm.Type = parseType(p)
	if prm.Type == nil {
		return prm, false
	}
	nm, ok := p.Ident("parameter name")
	if !ok {
		return prm, false
	}
	prm.Name = nm.Text
	prm.Type = p.ArraySuffix(prm.Type)
	prm.Semantic, _ = parseAnnots(p)
	return prm, true
}

// parseType parses an intrinsic type reference, with an optional template
// argument for resource types (Texture2D<float4>).
func parseType(p *bind.Parser) *bind.TypeExpr {
	t := p.Cur()
	if t.Kind != lex.Ident || !IsTypeName(t.Text) {
		p.Errorf(t.Pos, "expected type, found %s", t)
		return nil
	}
	p.Next()
	te := &bind.TypeExpr{Pos: t.Pos, Name: t.Text}
	if p.At("<") && strings.HasPrefix(t.Text, "Texture") {
		p.Next()
		el := p.Cur()
		if el.Kind != lex.Ident || !IsTypeName(el.Text) {
			p.Errorf(el.Pos, "expected texel type, found %s", el)
		} else {
			te.Elem = &bind.TypeExpr{Pos: el.Pos, Name: el.Text}
			p.Next()
		}
		p.Expect(">")
	}
	return te
}

// localDecl parses a local declaration, `[static] [const] type name [N]
// [= init]`, without its ';'.
func localDecl(p *bind.Parser) bind.Stmt {
	start := p.Cur().Pos
	isConst := false
	for p.At("const") || p.At("static") {
		if p.Next().Text == "const" {
			isConst = true
		}
	}
	return p.CDecl(start, isConst)
}

// skipStmtAttrs drops statement attributes such as [unroll], [loop],
// [branch], and [flatten]; they are compiler hints with no semantic
// content in the subset.
func skipStmtAttrs(p *bind.Parser) {
	for p.At("[") && p.PeekTok(1).Kind == lex.Ident {
		switch p.PeekTok(1).Text {
		case "unroll", "loop", "branch", "flatten", "fastopt", "allow_uav_condition":
		default:
			return
		}
		p.Next() // [
		p.Next() // attr name
		if p.Accept("(") {
			for !p.Accept(")") {
				if p.Cur().Kind == lex.EOF {
					return
				}
				p.Next()
			}
		}
		p.Expect("]")
	}
}
