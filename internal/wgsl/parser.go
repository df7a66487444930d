package wgsl

import (
	"strconv"
	"strings"

	"shaderopt/internal/bind"
	"shaderopt/internal/lex"
)

// Parser is a recursive-descent parser for the WGSL subset.
type Parser struct {
	lex.Cursor
}

// Parse parses a complete WGSL module.
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
	attrs := p.parseAttrs()
	t = p.Cur()
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
		return p.parseFn(attrs)
	case "var":
		return p.parseGlobalVar(attrs)
	case "const", "let", "override":
		return p.parseConstDecl()
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
func (p *Parser) parseAttrs() []Attr {
	var out []Attr
	for p.Cur().Kind == lex.Punct && p.Cur().Text == "@" {
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
func (p *Parser) parseGlobalVar(attrs []Attr) Decl {
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
	name := p.Cur()
	if name.Kind != lex.Ident {
		p.Errorf(name.Pos, "expected variable name, found %s", name)
		p.Sync()
		return nil
	}
	p.Next()
	var ty *bind.TypeExpr
	if p.Accept(":") {
		ty = p.parseType()
	}
	var init bind.Expr
	if p.Accept("=") {
		init = p.parseExpr()
	}
	p.Expect(";")
	return &GlobalVar{Pos: t.Pos, Attrs: attrs, AddressSpace: space, Name: name.Text, Type: ty, Init: init}
}

// parseConstDecl parses module-scope `const name [: type] = init;`.
func (p *Parser) parseConstDecl() Decl {
	t := p.Next() // const / let / override
	name := p.Cur()
	if name.Kind != lex.Ident {
		p.Errorf(name.Pos, "expected constant name, found %s", name)
		p.Sync()
		return nil
	}
	p.Next()
	var ty *bind.TypeExpr
	if p.Accept(":") {
		ty = p.parseType()
	}
	p.Expect("=")
	init := p.parseExpr()
	p.Expect(";")
	return &ConstDecl{Pos: t.Pos, Name: name.Text, Type: ty, Init: init}
}

func (p *Parser) parseFn(attrs []Attr) Decl {
	t := p.Expect("fn")
	name := p.Cur()
	if name.Kind != lex.Ident {
		p.Errorf(name.Pos, "expected function name, found %s", name)
		p.Sync()
		return nil
	}
	p.Next()
	fn := &FnDecl{Pos: t.Pos, Attrs: attrs, Name: name.Text}
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
	if p.Accept("->") {
		fn.RetAttrs = p.parseAttrs()
		fn.Ret = p.parseType()
	}
	fn.Body = p.parseBlock()
	return fn
}

func (p *Parser) parseParam() (Param, bool) {
	var prm Param
	prm.Attrs = p.parseAttrs()
	nm := p.Cur()
	if nm.Kind != lex.Ident {
		p.Errorf(nm.Pos, "expected parameter name, found %s", nm)
		return prm, false
	}
	p.Next()
	prm.Name = nm.Text
	p.Expect(":")
	prm.Type = p.parseType()
	return prm, prm.Type != nil
}

// parseType parses a (possibly templated) type reference.
func (p *Parser) parseType() *bind.TypeExpr {
	t := p.Cur()
	if t.Kind != lex.Ident {
		p.Errorf(t.Pos, "expected type, found %s", t)
		return nil
	}
	p.Next()
	te := &bind.TypeExpr{Pos: t.Pos, Name: t.Text}
	if p.Accept("<") {
		te.Elem = p.parseType()
		if p.Accept(",") {
			n := p.Cur()
			if n.Kind != lex.IntLit {
				p.Errorf(n.Pos, "expected array length, found %s", n)
			} else {
				v, err := strconv.Atoi(strings.TrimRight(n.Text, "iu"))
				if err != nil {
					p.Errorf(n.Pos, "bad array length %q", n.Text)
				}
				te.Len = v
				p.Next()
			}
		}
		p.Expect(">")
	}
	return te
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

func (p *Parser) parseStmt() bind.Stmt {
	t := p.Cur()
	switch {
	case t.Kind == lex.Punct && t.Text == "{":
		return p.parseBlock()
	case t.Kind == lex.Punct && t.Text == ";":
		p.Next()
		return nil
	case t.Kind == lex.Keyword:
		switch t.Text {
		case "let", "const":
			return p.parseLet()
		case "var":
			return p.parseVar()
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
	default:
		return p.parseSimpleStmtSemi()
	}
}

func (p *Parser) parseLet() bind.Stmt {
	t := p.Next() // let / const
	nm := p.Cur()
	if nm.Kind != lex.Ident {
		p.Errorf(nm.Pos, "expected name after %q, found %s", t.Text, nm)
		p.Sync()
		return nil
	}
	p.Next()
	var ty *bind.TypeExpr
	if p.Accept(":") {
		ty = p.parseType()
	}
	p.Expect("=")
	init := p.parseExpr()
	p.Expect(";")
	return &bind.DeclStmt{Pos: t.Pos, Const: true, Type: ty, Name: nm.Text, Init: init}
}

func (p *Parser) parseVar() bind.Stmt {
	t := p.Expect("var")
	nm := p.Cur()
	if nm.Kind != lex.Ident {
		p.Errorf(nm.Pos, "expected name after var, found %s", nm)
		p.Sync()
		return nil
	}
	p.Next()
	var ty *bind.TypeExpr
	if p.Accept(":") {
		ty = p.parseType()
	}
	var init bind.Expr
	if p.Accept("=") {
		init = p.parseExpr()
	}
	if ty == nil && init == nil {
		p.Errorf(t.Pos, "var %q needs a type or an initializer", nm.Text)
	}
	p.Expect(";")
	return &bind.DeclStmt{Pos: t.Pos, Type: ty, Name: nm.Text, Init: init}
}

// parseSimpleStmt parses an assignment, inc/dec, or expression statement,
// without consuming a trailing semicolon (for `for` headers).
func (p *Parser) parseSimpleStmt() bind.Stmt {
	t := p.Cur()
	if t.Kind == lex.Keyword && (t.Text == "let" || t.Text == "const") {
		return p.parseLet() // consumes ';' — only used by for-init handling
	}
	if t.Kind == lex.Keyword && t.Text == "var" {
		return p.parseVar() // consumes ';'
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
	// WGSL allows both `if cond { }` and `if (cond) { }`.
	paren := p.Accept("(")
	cond := p.parseExpr()
	if paren {
		p.Expect(")")
	}
	then := p.parseBlock()
	var els bind.Stmt
	if p.Accept("else") {
		if p.Cur().Kind == lex.Keyword && p.Cur().Text == "if" {
			els = p.parseIf()
		} else {
			els = p.parseBlock()
		}
	}
	return &bind.IfStmt{Pos: t.Pos, Cond: cond, Then: then, Else: els}
}

func (p *Parser) parseFor() bind.Stmt {
	t := p.Expect("for")
	p.Expect("(")
	var init bind.Stmt
	if !(p.Cur().Kind == lex.Punct && p.Cur().Text == ";") {
		switch {
		case p.Cur().Kind == lex.Keyword && p.Cur().Text == "var":
			init = p.parseVar() // consumes ';'
		case p.Cur().Kind == lex.Keyword && (p.Cur().Text == "let" || p.Cur().Text == "const"):
			init = p.parseLet() // consumes ';'
		default:
			init = p.parseSimpleStmtSemi()
		}
	} else {
		p.Next()
	}
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
	body := p.parseBlock()
	return &bind.ForStmt{Pos: t.Pos, Init: init, Cond: cond, Post: post, Body: body}
}

func (p *Parser) parseWhile() bind.Stmt {
	t := p.Expect("while")
	paren := p.Accept("(")
	cond := p.parseExpr()
	if paren {
		p.Expect(")")
	}
	body := p.parseBlock()
	return &bind.WhileStmt{Pos: t.Pos, Cond: cond, Body: body}
}

// --- Expressions ---

// Binary operator precedence, higher binds tighter. WGSL has no ternary;
// selection is the select(f, t, cond) builtin.
var binPrec = map[string]int{
	"||": 1, "&&": 2,
	"==": 3, "!=": 3,
	"<": 4, ">": 4, "<=": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *Parser) parseExpr() bind.Expr { return p.parseBinary(1) }

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
		text := strings.TrimRight(t.Text, "iu")
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
		text := strings.TrimRight(t.Text, "fh")
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
		// Templated constructor: vec4<f32>(...), array<f32, 9>(...).
		if p.Cur().Kind == lex.Punct && p.Cur().Text == "<" && isTemplatedName(t.Text) {
			p.At-- // re-parse the full type reference
			ty := p.parseType()
			call := p.parseCallArgs(t.Pos, t.Text)
			call.TypeArg = ty
			return call
		}
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
