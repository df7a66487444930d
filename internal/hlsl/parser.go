package hlsl

import (
	"strconv"
	"strings"

	"shaderopt/internal/bind"
	"shaderopt/internal/lex"
)

// Parser is a recursive-descent parser for the HLSL subset.
type Parser struct {
	lex.Cursor
}

// Parse parses a complete HLSL module.
func Parse(src string) (*Module, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{lex.Cursor{Toks: toks}}
	m := &Module{}
	for p.Cur().Kind != lex.EOF {
		d := p.parseDecl()
		if d != nil {
			m.Decls = append(m.Decls, d)
		}
		if len(p.Errs) > 8 {
			break
		}
	}
	if len(p.Errs) > 0 {
		return nil, p.Errs[0]
	}
	return m, nil
}

// --- Declarations ---

func (p *Parser) parseDecl() Decl {
	t := p.Cur()
	if t.Kind == lex.Punct && t.Text == ";" {
		p.Next()
		return nil
	}
	if t.Kind == lex.Keyword {
		switch t.Text {
		case "cbuffer", "tbuffer":
			return p.parseCBuffer()
		case "static", "const", "uniform":
			return p.parseGlobalVar()
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
			return p.parseFn()
		}
		return p.parseGlobalVar()
	}
	p.Errorf(t.Pos, "expected declaration, found %s", t)
	p.Sync()
	return nil
}

// parseAnnots parses a run of `: NAME` annotations after a declarator or
// function signature: semantics (TEXCOORD0, SV_Target) are returned as
// semantic, register(...) bindings as register; packoffset(...) is
// accepted and dropped.
func (p *Parser) parseAnnots() (semantic, register string) {
	for p.Cur().Kind == lex.Punct && p.Cur().Text == ":" {
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
func (p *Parser) parseCBuffer() Decl {
	t := p.Next() // cbuffer / tbuffer
	name := p.Cur()
	if name.Kind != lex.Ident {
		p.Errorf(name.Pos, "expected cbuffer name, found %s", name)
		p.Sync()
		return nil
	}
	p.Next()
	_, register := p.parseAnnots()
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
		ty := p.parseType()
		if ty == nil {
			p.Sync()
			continue
		}
		mn := p.Cur()
		if mn.Kind != lex.Ident {
			p.Errorf(mn.Pos, "expected member name, found %s", mn)
			p.Sync()
			continue
		}
		p.Next()
		ty = p.parseArraySuffix(ty)
		p.parseAnnots() // packoffset is a layout detail; drop it
		p.Expect(";")
		d.Members = append(d.Members, CBufferMember{Pos: mn.Pos, Type: ty, Name: mn.Text})
	}
	p.Accept(";") // trailing semicolon is conventional but optional
	return d
}

// parseGlobalVar parses `[static] [const] [uniform] type name [N]
// [: register(...)] [= init];` at module scope.
func (p *Parser) parseGlobalVar() Decl {
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
	ty := p.parseType()
	if ty == nil {
		p.Sync()
		return nil
	}
	name := p.Cur()
	if name.Kind != lex.Ident {
		p.Errorf(name.Pos, "expected variable name, found %s", name)
		p.Sync()
		return nil
	}
	p.Next()
	ty = p.parseArraySuffix(ty)
	_, register := p.parseAnnots()
	var init bind.Expr
	if p.Accept("=") {
		init = p.parseInitializer(ty)
	}
	p.Expect(";")
	return &GlobalVar{
		Pos: start, Static: isStatic, Const: isConst,
		Type: ty, Name: name.Text, Register: register, Init: init,
	}
}

func (p *Parser) parseFn() Decl {
	ret := p.parseType()
	name := p.Next() // checked Ident by the caller
	fn := &FnDecl{Pos: name.Pos, Ret: ret, Name: name.Text}
	p.Expect("(")
	if !p.Accept(")") {
		for {
			prm, ok := p.parseParam()
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
	fn.RetSemantic, _ = p.parseAnnots()
	fn.Body = p.parseBlock()
	return fn
}

func (p *Parser) parseParam() (Param, bool) {
	var prm Param
	if t := p.Cur(); t.Kind == lex.Keyword && (t.Text == "in" || t.Text == "out" || t.Text == "inout") {
		prm.Qual = t.Text
		p.Next()
	}
	prm.Type = p.parseType()
	if prm.Type == nil {
		return prm, false
	}
	nm := p.Cur()
	if nm.Kind != lex.Ident {
		p.Errorf(nm.Pos, "expected parameter name, found %s", nm)
		return prm, false
	}
	p.Next()
	prm.Name = nm.Text
	prm.Type = p.parseArraySuffix(prm.Type)
	prm.Semantic, _ = p.parseAnnots()
	return prm, true
}

// parseType parses an intrinsic type reference, with an optional template
// argument for resource types (Texture2D<float4>).
func (p *Parser) parseType() *bind.TypeExpr {
	t := p.Cur()
	if t.Kind != lex.Ident || !IsTypeName(t.Text) {
		p.Errorf(t.Pos, "expected type, found %s", t)
		return nil
	}
	p.Next()
	te := &bind.TypeExpr{Pos: t.Pos, Name: t.Text}
	if p.Cur().Kind == lex.Punct && p.Cur().Text == "<" && strings.HasPrefix(t.Text, "Texture") {
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

// parseArraySuffix parses an optional C-style `[N]` or `[]` declarator
// suffix, folding it into an array of ty (Len 0 when unsized).
func (p *Parser) parseArraySuffix(ty *bind.TypeExpr) *bind.TypeExpr {
	if !(p.Cur().Kind == lex.Punct && p.Cur().Text == "[") {
		return ty
	}
	p.Next()
	if p.Accept("]") {
		return &bind.TypeExpr{Pos: ty.Pos, Name: "array", Elem: ty}
	}
	n := p.Cur()
	if n.Kind != lex.IntLit {
		p.Errorf(n.Pos, "expected array length, found %s", n)
		p.Expect("]")
		return ty
	}
	p.Next()
	v, err := strconv.Atoi(strings.TrimRight(n.Text, "uUlL"))
	if err != nil || v < 1 {
		p.Errorf(n.Pos, "bad array length %q", n.Text)
		v = 1
	}
	p.Expect("]")
	return &bind.TypeExpr{Pos: ty.Pos, Name: "array", Elem: ty, Len: v}
}

// parseInitializer parses either a brace initializer list or an
// expression. A nonempty brace list sizes an unsized array type ty.
func (p *Parser) parseInitializer(ty *bind.TypeExpr) bind.Expr {
	if p.Cur().Kind == lex.Punct && p.Cur().Text == "{" {
		t := p.Next()
		list := &bind.InitListExpr{Pos: t.Pos}
		for !p.Accept("}") {
			if p.Cur().Kind == lex.EOF {
				p.Errorf(p.Cur().Pos, "unterminated initializer list")
				return list
			}
			list.Elems = append(list.Elems, p.parseExpr())
			if !p.Accept(",") && !(p.Cur().Kind == lex.Punct && p.Cur().Text == "}") {
				p.Errorf(p.Cur().Pos, "expected ',' or '}' in initializer, found %s", p.Cur())
				return list
			}
		}
		if ty.Name == "array" && ty.Len == 0 {
			ty.Len = len(list.Elems)
		}
		return list
	}
	return p.parseExpr()
}

// --- Statements ---

func (p *Parser) parseBlock() *bind.BlockStmt {
	open := p.Expect("{")
	blk := &bind.BlockStmt{Pos: open.Pos}
	for {
		t := p.Cur()
		if t.Kind == lex.EOF {
			p.Errorf(t.Pos, "unterminated block")
			return blk
		}
		if t.Kind == lex.Punct && t.Text == "}" {
			p.Next()
			return blk
		}
		s := p.parseStmt()
		if s != nil {
			blk.Stmts = append(blk.Stmts, s)
		}
		if len(p.Errs) > 8 {
			return blk
		}
	}
}

// skipStmtAttrs drops statement attributes such as [unroll], [loop],
// [branch], and [flatten]; they are compiler hints with no semantic
// content in the subset.
func (p *Parser) skipStmtAttrs() {
	for p.Cur().Kind == lex.Punct && p.Cur().Text == "[" && p.PeekTok(1).Kind == lex.Ident {
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

func (p *Parser) parseStmt() bind.Stmt {
	p.skipStmtAttrs()
	t := p.Cur()
	switch {
	case t.Kind == lex.Punct && t.Text == "{":
		return p.parseBlock()
	case t.Kind == lex.Punct && t.Text == ";":
		p.Next()
		return nil
	case t.Kind == lex.Keyword:
		switch t.Text {
		case "const", "static":
			return p.parseLocalDeclSemi()
		case "if":
			return p.parseIf()
		case "for":
			return p.parseFor()
		case "while":
			return p.parseWhile()
		case "return":
			p.Next()
			var res bind.Expr
			if !(p.Cur().Kind == lex.Punct && p.Cur().Text == ";") {
				res = p.parseExpr()
			}
			p.Expect(";")
			return &bind.ReturnStmt{Pos: t.Pos, Result: res}
		case "discard":
			p.Next()
			p.Expect(";")
			return &bind.DiscardStmt{Pos: t.Pos}
		case "break":
			p.Next()
			p.Expect(";")
			return &bind.BreakStmt{Pos: t.Pos}
		case "continue":
			p.Next()
			p.Expect(";")
			return &bind.ContinueStmt{Pos: t.Pos}
		default:
			p.Errorf(t.Pos, "unexpected keyword %q in statement", t.Text)
			p.Sync()
			return nil
		}
	case t.Kind == lex.Ident && IsTypeName(t.Text) && p.PeekTok(1).Kind == lex.Ident:
		return p.parseLocalDeclSemi()
	default:
		return p.parseSimpleStmtSemi()
	}
}

// parseLocalDecl parses a C-style local declaration
// `[static] [const] type name [N] [= init]` without the semicolon.
func (p *Parser) parseLocalDecl() bind.Stmt {
	start := p.Cur().Pos
	isConst := false
	for {
		t := p.Cur()
		if t.Kind == lex.Keyword && (t.Text == "const" || t.Text == "static") {
			if t.Text == "const" {
				isConst = true
			}
			p.Next()
			continue
		}
		break
	}
	ty := p.parseType()
	if ty == nil {
		p.Sync()
		return nil
	}
	nm := p.Cur()
	if nm.Kind != lex.Ident {
		p.Errorf(nm.Pos, "expected name in declaration, found %s", nm)
		p.Sync()
		return nil
	}
	p.Next()
	ty = p.parseArraySuffix(ty)
	var init bind.Expr
	if p.Accept("=") {
		init = p.parseInitializer(ty)
	}
	return &bind.DeclStmt{Pos: start, Const: isConst, Type: ty, Name: nm.Text, Init: init}
}

func (p *Parser) parseLocalDeclSemi() bind.Stmt {
	s := p.parseLocalDecl()
	if s != nil {
		p.Expect(";")
	}
	return s
}

// parseSimpleStmt parses an assignment, inc/dec, or expression statement,
// without consuming a trailing semicolon (for `for` headers).
func (p *Parser) parseSimpleStmt() bind.Stmt {
	t := p.Cur()
	// Prefix inc/dec: `++i` is as idiomatic as `i++` in for-loop posts;
	// both desugar to compound assignment (value-position prefix forms
	// are outside the subset, like all side-effecting expressions).
	if t.Kind == lex.Punct && (t.Text == "++" || t.Text == "--") {
		p.Next()
		lhs := p.parsePostfix()
		op := "+="
		if t.Text == "--" {
			op = "-="
		}
		return &bind.AssignStmt{Pos: t.Pos, LHS: lhs, Op: op, RHS: &bind.IntLitExpr{Pos: t.Pos, Value: 1}}
	}
	lhs := p.parseExpr()
	cur := p.Cur()
	if cur.Kind == lex.Punct {
		switch cur.Text {
		case "=", "+=", "-=", "*=", "/=":
			p.Next()
			rhs := p.parseExpr()
			return &bind.AssignStmt{Pos: t.Pos, LHS: lhs, Op: cur.Text, RHS: rhs}
		case "++":
			p.Next()
			return &bind.AssignStmt{Pos: t.Pos, LHS: lhs, Op: "+=", RHS: &bind.IntLitExpr{Pos: cur.Pos, Value: 1}}
		case "--":
			p.Next()
			return &bind.AssignStmt{Pos: t.Pos, LHS: lhs, Op: "-=", RHS: &bind.IntLitExpr{Pos: cur.Pos, Value: 1}}
		}
	}
	return &bind.ExprStmt{Pos: t.Pos, X: lhs}
}

func (p *Parser) parseSimpleStmtSemi() bind.Stmt {
	s := p.parseSimpleStmt()
	p.Expect(";")
	return s
}

func (p *Parser) parseIf() bind.Stmt {
	t := p.Expect("if")
	p.Expect("(")
	cond := p.parseExpr()
	p.Expect(")")
	then := p.parseStmtAsBlock()
	var els bind.Stmt
	if p.Accept("else") {
		p.skipStmtAttrs()
		if p.Cur().Kind == lex.Keyword && p.Cur().Text == "if" {
			els = p.parseIf()
		} else {
			els = p.parseStmtAsBlock()
		}
	}
	return &bind.IfStmt{Pos: t.Pos, Cond: cond, Then: then, Else: els}
}

// parseStmtAsBlock parses a braced block, or wraps a single unbraced
// statement (C permits `if (c) discard;`) in a block.
func (p *Parser) parseStmtAsBlock() *bind.BlockStmt {
	if p.Cur().Kind == lex.Punct && p.Cur().Text == "{" {
		return p.parseBlock()
	}
	s := p.parseStmt()
	blk := &bind.BlockStmt{Pos: p.Cur().Pos}
	if s != nil {
		blk.Stmts = append(blk.Stmts, s)
	}
	return blk
}

func (p *Parser) parseFor() bind.Stmt {
	t := p.Expect("for")
	p.Expect("(")
	var init bind.Stmt
	if !(p.Cur().Kind == lex.Punct && p.Cur().Text == ";") {
		if c := p.Cur(); (c.Kind == lex.Ident && IsTypeName(c.Text) && p.PeekTok(1).Kind == lex.Ident) ||
			(c.Kind == lex.Keyword && (c.Text == "const" || c.Text == "static")) {
			init = p.parseLocalDecl()
		} else {
			init = p.parseSimpleStmt()
		}
	}
	p.Expect(";")
	var cond bind.Expr
	if !(p.Cur().Kind == lex.Punct && p.Cur().Text == ";") {
		cond = p.parseExpr()
	}
	p.Expect(";")
	var post bind.Stmt
	if !(p.Cur().Kind == lex.Punct && p.Cur().Text == ")") {
		post = p.parseSimpleStmt()
	}
	p.Expect(")")
	body := p.parseStmtAsBlock()
	return &bind.ForStmt{Pos: t.Pos, Init: init, Cond: cond, Post: post, Body: body}
}

func (p *Parser) parseWhile() bind.Stmt {
	t := p.Expect("while")
	p.Expect("(")
	cond := p.parseExpr()
	p.Expect(")")
	body := p.parseStmtAsBlock()
	return &bind.WhileStmt{Pos: t.Pos, Cond: cond, Body: body}
}

// --- Expressions ---

// Binary operator precedence, higher binds tighter. The ternary ?: sits
// below all binary operators and associates right.
var binPrec = map[string]int{
	"||": 1, "&&": 2,
	"==": 3, "!=": 3,
	"<": 4, ">": 4, "<=": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *Parser) parseExpr() bind.Expr { return p.parseTernary() }

func (p *Parser) parseTernary() bind.Expr {
	cond := p.parseBinary(1)
	t := p.Cur()
	if t.Kind == lex.Punct && t.Text == "?" {
		p.Next()
		thn := p.parseTernary()
		p.Expect(":")
		els := p.parseTernary()
		return &bind.CondExpr{Pos: t.Pos, Cond: cond, Then: thn, Else: els}
	}
	return cond
}

func (p *Parser) parseBinary(minPrec int) bind.Expr {
	lhs := p.parseUnary()
	for {
		t := p.Cur()
		if t.Kind != lex.Punct {
			return lhs
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs
		}
		p.Next()
		rhs := p.parseBinary(prec + 1)
		lhs = &bind.BinaryExpr{Pos: t.Pos, Op: t.Text, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnary() bind.Expr {
	t := p.Cur()
	if t.Kind == lex.Punct {
		switch t.Text {
		case "-", "!":
			p.Next()
			return &bind.UnaryExpr{Pos: t.Pos, Op: t.Text, X: p.parseUnary()}
		case "+":
			p.Next()
			return p.parseUnary()
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() bind.Expr {
	x := p.parsePrimary()
	for {
		t := p.Cur()
		if t.Kind != lex.Punct {
			return x
		}
		switch t.Text {
		case "[":
			p.Next()
			idx := p.parseExpr()
			p.Expect("]")
			x = &bind.IndexExpr{Pos: t.Pos, X: x, Index: idx}
		case ".":
			p.Next()
			nm := p.Cur()
			if nm.Kind != lex.Ident {
				p.Errorf(nm.Pos, "expected member name after '.', found %s", nm)
				return x
			}
			p.Next()
			if p.Cur().Kind == lex.Punct && p.Cur().Text == "(" {
				// Resource method: tex.Sample(samp, uv).
				call := p.parseCallArgs(t.Pos, nm.Text)
				x = &bind.MethodCallExpr{Pos: t.Pos, Recv: x, Method: nm.Text, Args: call.Args}
				continue
			}
			x = &bind.MemberExpr{Pos: t.Pos, X: x, Name: nm.Text}
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimary() bind.Expr {
	t := p.Cur()
	switch t.Kind {
	case lex.IntLit:
		p.Next()
		text := strings.TrimRight(t.Text, "uUlL")
		var v int64
		if strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X") {
			u, err := strconv.ParseUint(text[2:], 16, 64)
			if err != nil {
				p.Errorf(t.Pos, "bad hex literal %q", t.Text)
			}
			v = int64(u)
		} else {
			var err error
			v, err = strconv.ParseInt(text, 10, 64)
			if err != nil {
				p.Errorf(t.Pos, "bad int literal %q", t.Text)
			}
		}
		return &bind.IntLitExpr{Pos: t.Pos, Value: v}
	case lex.FloatLit:
		p.Next()
		text := strings.TrimRight(t.Text, "fFhH")
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			p.Errorf(t.Pos, "bad float literal %q", t.Text)
		}
		return &bind.FloatLitExpr{Pos: t.Pos, Value: v}
	case lex.BoolLit:
		p.Next()
		return &bind.BoolLitExpr{Pos: t.Pos, Value: t.Text == "true"}
	case lex.Ident:
		p.Next()
		if p.Cur().Kind == lex.Punct && p.Cur().Text == "(" {
			return p.parseCallArgs(t.Pos, t.Text)
		}
		return &bind.IdentExpr{Pos: t.Pos, Name: t.Text}
	case lex.Punct:
		if t.Text == "(" {
			p.Next()
			e := p.parseExpr()
			p.Expect(")")
			return e
		}
	}
	p.Errorf(t.Pos, "unexpected token %s in expression", t)
	p.Next()
	return &bind.IntLitExpr{Pos: t.Pos, Value: 0}
}

func (p *Parser) parseCallArgs(pos lex.Pos, callee string) *bind.CallExpr {
	p.Expect("(")
	call := &bind.CallExpr{Pos: pos, Callee: callee}
	if p.Accept(")") {
		return call
	}
	for {
		call.Args = append(call.Args, p.parseExpr())
		if p.Accept(")") {
			return call
		}
		p.Expect(",")
		if p.Cur().Kind == lex.EOF {
			p.Errorf(p.Cur().Pos, "unterminated call to %q", callee)
			return call
		}
	}
}
