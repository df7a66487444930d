package msl

import (
	"fmt"
	"strconv"
	"strings"

	"shaderopt/internal/bind"
	"shaderopt/internal/lex"
)

// Parser is a recursive-descent parser over the token stream.
type Parser struct {
	toks []Token
	pos  int
	errs []error
}

// Parse parses an MSL module.
func Parse(src string) (*Module, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	m := &Module{}
	for p.cur().Kind != lex.EOF {
		if len(p.errs) > 8 {
			break
		}
		d := p.parseDecl()
		if d != nil {
			m.Decls = append(m.Decls, d)
		}
	}
	if len(p.errs) > 0 {
		return nil, p.errs[0]
	}
	return m, nil
}

func (p *Parser) cur() Token { return p.toks[p.pos] }

func (p *Parser) peekTok(n int) Token {
	if p.pos+n >= len(p.toks) {
		return p.toks[len(p.toks)-1]
	}
	return p.toks[p.pos+n]
}

func (p *Parser) next() Token {
	t := p.toks[p.pos]
	if p.pos < len(p.toks)-1 {
		p.pos++
	}
	return t
}

func (p *Parser) accept(kind lex.Kind, text string) bool {
	if p.cur().Kind == kind && p.cur().Text == text {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(kind lex.Kind, text string) Token {
	if p.cur().Kind == kind && p.cur().Text == text {
		return p.next()
	}
	p.errorf("expected %q, found %q", text, p.cur().Text)
	return p.cur()
}

func (p *Parser) errorf(format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("msl: %s: %s", p.cur().Pos, fmt.Sprintf(format, args...)))
	p.sync()
}

// sync skips to the next ; or } so one error does not cascade.
func (p *Parser) sync() {
	for p.cur().Kind != lex.EOF {
		if p.cur().Kind == lex.Punct && (p.cur().Text == ";" || p.cur().Text == "}") {
			p.next()
			return
		}
		p.next()
	}
}

// --- declarations ---

func (p *Parser) parseDecl() Decl {
	t := p.cur()
	if t.Kind == lex.Keyword {
		switch t.Text {
		case "using":
			// using namespace metal;
			for p.cur().Kind != lex.EOF && !(p.cur().Kind == lex.Punct && p.cur().Text == ";") {
				p.next()
			}
			p.accept(lex.Punct, ";")
			return nil
		case "template":
			// Template helper (the glsl_ prelude): skip the whole definition.
			p.skipTemplate()
			return nil
		case "struct":
			return p.parseStruct()
		case "constant":
			return p.parseGlobalVar()
		case "static", "inline", "fragment", "vertex", "kernel":
			return p.parseFn()
		}
		p.errorf("unexpected keyword %q at module scope", t.Text)
		return nil
	}
	if t.Kind == lex.Ident {
		// A plain function definition: Type Name ( ...
		return p.parseFn()
	}
	p.errorf("unexpected token %q at module scope", t.Text)
	return nil
}

// skipTemplate consumes a template function definition by skipping to the
// first { and matching braces.
func (p *Parser) skipTemplate() {
	for p.cur().Kind != lex.EOF && !(p.cur().Kind == lex.Punct && p.cur().Text == "{") {
		p.next()
	}
	depth := 0
	for p.cur().Kind != lex.EOF {
		t := p.next()
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

func (p *Parser) parseStruct() *StructDecl {
	pos := p.cur().Pos
	p.expect(lex.Keyword, "struct")
	name := p.ident("struct name")
	st := &StructDecl{Pos: pos, Name: name}
	p.expect(lex.Punct, "{")
	for p.cur().Kind != lex.EOF && !(p.cur().Kind == lex.Punct && p.cur().Text == "}") {
		ft := p.parseType()
		fname := p.ident("field name")
		f := StructField{Type: ft, Name: fname, Attr: Attr{Arg: -1}}
		if p.cur().Kind == lex.Punct && p.cur().Text == "[" && p.peekTok(1).Text == "[" {
			f.Attr = p.parseAttr()
		} else if p.accept(lex.Punct, "[") {
			// C-style array member: rewrite onto the type.
			n := p.intLit("array length")
			p.expect(lex.Punct, "]")
			f.Type = &bind.TypeExpr{Pos: ft.Pos, Name: "array", Elem: ft, Len: n}
		}
		p.expect(lex.Punct, ";")
		st.Fields = append(st.Fields, f)
	}
	p.expect(lex.Punct, "}")
	p.expect(lex.Punct, ";")
	return st
}

func (p *Parser) parseGlobalVar() *GlobalVar {
	pos := p.cur().Pos
	p.expect(lex.Keyword, "constant")
	ty := p.parseType()
	name := p.ident("constant name")
	g := &GlobalVar{Pos: pos, Type: ty, Name: name}
	if p.accept(lex.Punct, "=") {
		g.Init = p.parseExpr()
	}
	p.expect(lex.Punct, ";")
	return g
}

func (p *Parser) parseFn() *FnDecl {
	pos := p.cur().Pos
	fn := &FnDecl{Pos: pos}
	for p.cur().Kind == lex.Keyword {
		switch p.cur().Text {
		case "static", "inline":
			p.next()
			continue
		case "fragment":
			fn.Fragment = true
			p.next()
			continue
		case "vertex", "kernel":
			p.errorf("%s functions are outside the fragment-shader subset", p.cur().Text)
			return nil
		}
		break
	}
	fn.Ret = p.parseType()
	fn.Name = p.ident("function name")
	p.expect(lex.Punct, "(")
	for p.cur().Kind != lex.EOF && !(p.cur().Kind == lex.Punct && p.cur().Text == ")") {
		fn.Params = append(fn.Params, p.parseParam())
		if !p.accept(lex.Punct, ",") {
			break
		}
	}
	p.expect(lex.Punct, ")")
	fn.Body = p.parseBlock()
	return fn
}

func (p *Parser) parseParam() Param {
	var pr Param
	if p.cur().Kind == lex.Keyword {
		switch p.cur().Text {
		case "constant", "device", "thread":
			pr.Space = p.next().Text
		case "const":
			p.next()
		}
	}
	pr.Type = p.parseType()
	if p.accept(lex.Punct, "&") {
		pr.Ref = true
	}
	pr.Name = p.ident("parameter name")
	pr.Attr = Attr{Arg: -1}
	if p.cur().Kind == lex.Punct && p.cur().Text == "[" && p.peekTok(1).Text == "[" {
		pr.Attr = p.parseAttr()
	}
	return pr
}

// parseAttr parses one [[name]] or [[name(arg)]] attribute. user(locnN)
// arguments resolve to N.
func (p *Parser) parseAttr() Attr {
	p.expect(lex.Punct, "[")
	p.expect(lex.Punct, "[")
	name := p.ident("attribute name")
	a := Attr{Name: name, Arg: -1}
	if p.accept(lex.Punct, "(") {
		switch p.cur().Kind {
		case lex.IntLit:
			a.Arg, _ = strconv.Atoi(p.next().Text)
		case lex.Ident:
			arg := p.next().Text
			if n, err := strconv.Atoi(strings.TrimPrefix(arg, "locn")); err == nil {
				a.Arg = n
			}
		default:
			p.errorf("bad attribute argument %q", p.cur().Text)
		}
		p.expect(lex.Punct, ")")
	}
	p.expect(lex.Punct, "]")
	p.expect(lex.Punct, "]")
	return a
}

// parseType parses a type reference: Name, Name<Elem>, array<Elem, N>.
func (p *Parser) parseType() *bind.TypeExpr {
	t := p.cur()
	if t.Kind != lex.Ident {
		p.errorf("expected type, found %q", t.Text)
		return &bind.TypeExpr{Pos: t.Pos, Name: "float"}
	}
	p.next()
	te := &bind.TypeExpr{Pos: t.Pos, Name: t.Text}
	if templatedType(t.Text) && p.accept(lex.Punct, "<") {
		te.Elem = p.parseType()
		if te.Name == "array" {
			p.expect(lex.Punct, ",")
			te.Len = p.intLit("array length")
		}
		p.expect(lex.Punct, ">")
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

func (p *Parser) ident(what string) string {
	t := p.cur()
	if t.Kind != lex.Ident {
		p.errorf("expected %s, found %q", what, t.Text)
		return "_"
	}
	p.next()
	return t.Text
}

func (p *Parser) intLit(what string) int {
	t := p.cur()
	if t.Kind != lex.IntLit {
		p.errorf("expected %s, found %q", what, t.Text)
		return 0
	}
	p.next()
	n, _ := strconv.Atoi(t.Text)
	return n
}

// --- statements ---

func (p *Parser) parseBlock() *bind.BlockStmt {
	pos := p.cur().Pos
	p.expect(lex.Punct, "{")
	b := &bind.BlockStmt{Pos: pos}
	for p.cur().Kind != lex.EOF && !(p.cur().Kind == lex.Punct && p.cur().Text == "}") {
		if s := p.parseStmt(); s != nil {
			b.Stmts = append(b.Stmts, s)
		}
	}
	p.expect(lex.Punct, "}")
	return b
}

func (p *Parser) parseStmt() bind.Stmt {
	t := p.cur()
	if t.Kind == lex.Keyword {
		switch t.Text {
		case "if":
			return p.parseIf()
		case "for":
			return p.parseFor()
		case "while":
			return p.parseWhile()
		case "return":
			pos := p.next().Pos
			r := &bind.ReturnStmt{Pos: pos}
			if !(p.cur().Kind == lex.Punct && p.cur().Text == ";") {
				r.Result = p.parseExpr()
			}
			p.expect(lex.Punct, ";")
			return r
		case "break":
			pos := p.next().Pos
			p.expect(lex.Punct, ";")
			return &bind.BreakStmt{Pos: pos}
		case "continue":
			pos := p.next().Pos
			p.expect(lex.Punct, ";")
			return &bind.ContinueStmt{Pos: pos}
		case "const":
			return p.parseLocalDecl(true)
		}
		p.errorf("unexpected keyword %q in statement", t.Text)
		return nil
	}
	if p.startsDecl() {
		return p.parseLocalDecl(true)
	}
	return p.parseSimpleStmt(true)
}

// startsDecl reports whether the upcoming tokens are a local declaration:
// a type name followed by an identifier (not an open paren, which would be
// a constructor-call expression). Struct types (the output struct) are not
// in the intrinsic table, so any `Ident Ident ;/=/[` run is a declaration
// too — no expression has two adjacent identifiers.
func (p *Parser) startsDecl() bool {
	t := p.cur()
	if t.Kind != lex.Ident {
		return false
	}
	if IsTypeName(t.Text) {
		if templatedType(t.Text) && p.peekTok(1).Kind == lex.Punct && p.peekTok(1).Text == "<" {
			return true
		}
		return p.peekTok(1).Kind == lex.Ident
	}
	if p.peekTok(1).Kind != lex.Ident {
		return false
	}
	nn := p.peekTok(2)
	return nn.Kind == lex.Punct && (nn.Text == ";" || nn.Text == "=" || nn.Text == "[")
}

func (p *Parser) parseLocalDecl(semi bool) bind.Stmt {
	pos := p.cur().Pos
	isConst := p.accept(lex.Keyword, "const")
	ty := p.parseType()
	name := p.ident("variable name")
	d := &bind.DeclStmt{Pos: pos, Const: isConst, Type: ty, Name: name}
	if p.accept(lex.Punct, "[") {
		n := p.intLit("array length")
		p.expect(lex.Punct, "]")
		d.Type = &bind.TypeExpr{Pos: ty.Pos, Name: "array", Elem: ty, Len: n}
	}
	if p.accept(lex.Punct, "=") {
		d.Init = p.parseInitializer()
	}
	if semi {
		p.expect(lex.Punct, ";")
	}
	return d
}

// parseInitializer parses an initializer expression, allowing a bare
// brace list ({} or {a, b, c}) for aggregate types.
func (p *Parser) parseInitializer() bind.Expr {
	if p.cur().Kind == lex.Punct && p.cur().Text == "{" {
		pos := p.next().Pos
		lit := &bind.InitListExpr{Pos: pos}
		for p.cur().Kind != lex.EOF && !(p.cur().Kind == lex.Punct && p.cur().Text == "}") {
			lit.Elems = append(lit.Elems, p.parseExpr())
			if !p.accept(lex.Punct, ",") {
				break
			}
		}
		p.expect(lex.Punct, "}")
		return lit
	}
	return p.parseExpr()
}

// parseSimpleStmt parses an assignment or expression statement.
// Prefix/postfix ++/-- normalize to compound assignments.
func (p *Parser) parseSimpleStmt(semi bool) bind.Stmt {
	pos := p.cur().Pos
	if p.cur().Kind == lex.Punct && (p.cur().Text == "++" || p.cur().Text == "--") {
		op := p.next().Text
		lhs := p.parseUnary()
		s := &bind.AssignStmt{Pos: pos, LHS: lhs, Op: string(op[0]) + "=", RHS: &bind.IntLitExpr{Pos: pos, Value: 1}}
		if semi {
			p.expect(lex.Punct, ";")
		}
		return s
	}
	lhs := p.parseExpr()
	t := p.cur()
	if t.Kind == lex.Punct {
		switch t.Text {
		case "=", "+=", "-=", "*=", "/=", "%=":
			op := p.next().Text
			rhs := p.parseExpr()
			s := &bind.AssignStmt{Pos: pos, LHS: lhs, Op: op, RHS: rhs}
			if semi {
				p.expect(lex.Punct, ";")
			}
			return s
		case "++", "--":
			op := p.next().Text
			s := &bind.AssignStmt{Pos: pos, LHS: lhs, Op: string(op[0]) + "=", RHS: &bind.IntLitExpr{Pos: pos, Value: 1}}
			if semi {
				p.expect(lex.Punct, ";")
			}
			return s
		}
	}
	s := &bind.ExprStmt{Pos: pos, X: lhs}
	if semi {
		p.expect(lex.Punct, ";")
	}
	return s
}

func (p *Parser) parseIf() *bind.IfStmt {
	pos := p.cur().Pos
	p.expect(lex.Keyword, "if")
	p.expect(lex.Punct, "(")
	cond := p.parseExpr()
	p.expect(lex.Punct, ")")
	s := &bind.IfStmt{Pos: pos, Cond: cond, Then: p.parseStmtAsBlock()}
	if p.accept(lex.Keyword, "else") {
		if p.cur().Kind == lex.Keyword && p.cur().Text == "if" {
			s.Else = p.parseIf()
		} else {
			s.Else = p.parseStmtAsBlock()
		}
	}
	return s
}

// parseStmtAsBlock parses a block, wrapping an unbraced single statement.
func (p *Parser) parseStmtAsBlock() *bind.BlockStmt {
	if p.cur().Kind == lex.Punct && p.cur().Text == "{" {
		return p.parseBlock()
	}
	pos := p.cur().Pos
	b := &bind.BlockStmt{Pos: pos}
	if s := p.parseStmt(); s != nil {
		b.Stmts = append(b.Stmts, s)
	}
	return b
}

func (p *Parser) parseFor() *bind.ForStmt {
	pos := p.cur().Pos
	p.expect(lex.Keyword, "for")
	p.expect(lex.Punct, "(")
	s := &bind.ForStmt{Pos: pos}
	if !(p.cur().Kind == lex.Punct && p.cur().Text == ";") {
		if p.startsDecl() || (p.cur().Kind == lex.Keyword && p.cur().Text == "const") {
			s.Init = p.parseLocalDecl(false)
		} else {
			s.Init = p.parseSimpleStmt(false)
		}
	}
	p.expect(lex.Punct, ";")
	if !(p.cur().Kind == lex.Punct && p.cur().Text == ";") {
		s.Cond = p.parseExpr()
	}
	p.expect(lex.Punct, ";")
	if !(p.cur().Kind == lex.Punct && p.cur().Text == ")") {
		s.Post = p.parseSimpleStmt(false)
	}
	p.expect(lex.Punct, ")")
	s.Body = p.parseStmtAsBlock()
	return s
}

func (p *Parser) parseWhile() *bind.WhileStmt {
	pos := p.cur().Pos
	p.expect(lex.Keyword, "while")
	p.expect(lex.Punct, "(")
	cond := p.parseExpr()
	p.expect(lex.Punct, ")")
	return &bind.WhileStmt{Pos: pos, Cond: cond, Body: p.parseStmtAsBlock()}
}

// --- expressions ---

var binPrec = map[string]int{
	"||": 1,
	"&&": 2,
	"==": 3, "!=": 3,
	"<": 4, ">": 4, "<=": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

func (p *Parser) parseExpr() bind.Expr { return p.parseTernary() }

func (p *Parser) parseTernary() bind.Expr {
	cond := p.parseBinary(1)
	if p.cur().Kind == lex.Punct && p.cur().Text == "?" {
		pos := p.next().Pos
		x := p.parseExpr()
		p.expect(lex.Punct, ":")
		y := p.parseTernary()
		return &bind.CondExpr{Pos: pos, Cond: cond, Then: x, Else: y}
	}
	return cond
}

func (p *Parser) parseBinary(minPrec int) bind.Expr {
	x := p.parseUnary()
	for {
		t := p.cur()
		if t.Kind != lex.Punct {
			return x
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return x
		}
		p.next()
		y := p.parseBinary(prec + 1)
		x = &bind.BinaryExpr{Pos: t.Pos, Op: t.Text, X: x, Y: y}
	}
}

func (p *Parser) parseUnary() bind.Expr {
	t := p.cur()
	if t.Kind == lex.Punct {
		switch t.Text {
		case "-", "!":
			p.next()
			return &bind.UnaryExpr{Pos: t.Pos, Op: t.Text, X: p.parseUnary()}
		case "+":
			p.next()
			return p.parseUnary()
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() bind.Expr {
	x := p.parsePrimary()
	for {
		t := p.cur()
		if t.Kind != lex.Punct {
			return x
		}
		switch t.Text {
		case "[":
			p.next()
			idx := p.parseExpr()
			p.expect(lex.Punct, "]")
			x = &bind.IndexExpr{Pos: t.Pos, X: x, Index: idx}
		case ".":
			p.next()
			name := p.ident("member name")
			if p.cur().Kind == lex.Punct && p.cur().Text == "(" {
				p.next()
				args := p.parseCallArgs()
				x = &bind.MethodCallExpr{Pos: t.Pos, Recv: x, Method: name, Args: args}
			} else {
				x = &bind.MemberExpr{Pos: t.Pos, X: x, Name: name}
			}
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimary() bind.Expr {
	t := p.cur()
	switch t.Kind {
	case lex.IntLit:
		text, base, what := t.Text, 10, "int"
		if strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X") {
			text, base, what = text[2:], 16, "hex"
		}
		n, err := strconv.ParseInt(text, base, 64)
		if err != nil {
			p.errorf("bad %s literal %q", what, t.Text)
			return &bind.IntLitExpr{Pos: t.Pos}
		}
		p.next()
		return &bind.IntLitExpr{Pos: t.Pos, Value: n}
	case lex.FloatLit:
		v, err := strconv.ParseFloat(t.Text, 64)
		if err != nil {
			p.errorf("bad float literal %q", t.Text)
			return &bind.FloatLitExpr{Pos: t.Pos}
		}
		p.next()
		return &bind.FloatLitExpr{Pos: t.Pos, Value: v}
	case lex.BoolLit:
		p.next()
		return &bind.BoolLitExpr{Pos: t.Pos, Value: t.Text == "true"}
	case lex.Ident:
		// array<T, N>{...} braced constructor.
		if templatedType(t.Text) && p.peekTok(1).Kind == lex.Punct && p.peekTok(1).Text == "<" {
			te := p.parseType()
			if te.Name != "array" {
				p.errorf("texture type %q cannot be constructed", te.Name)
				return &bind.IdentExpr{Pos: t.Pos, Name: "_"}
			}
			p.expect(lex.Punct, "{")
			lit := &bind.InitListExpr{Pos: t.Pos, Type: te}
			for p.cur().Kind != lex.EOF && !(p.cur().Kind == lex.Punct && p.cur().Text == "}") {
				lit.Elems = append(lit.Elems, p.parseExpr())
				if !p.accept(lex.Punct, ",") {
					break
				}
			}
			p.expect(lex.Punct, "}")
			return lit
		}
		p.next()
		if p.cur().Kind == lex.Punct && p.cur().Text == "(" {
			p.next()
			args := p.parseCallArgs()
			return &bind.CallExpr{Pos: t.Pos, Callee: t.Text, Args: args}
		}
		return &bind.IdentExpr{Pos: t.Pos, Name: t.Text}
	case lex.Punct:
		if t.Text == "(" {
			p.next()
			x := p.parseExpr()
			p.expect(lex.Punct, ")")
			return x
		}
	}
	p.errorf("unexpected token %q in expression", t.Text)
	return &bind.IdentExpr{Pos: t.Pos, Name: "_"}
}

func (p *Parser) parseCallArgs() []bind.Expr {
	var args []bind.Expr
	for p.cur().Kind != lex.EOF && !(p.cur().Kind == lex.Punct && p.cur().Text == ")") {
		args = append(args, p.parseExpr())
		if !p.accept(lex.Punct, ",") {
			break
		}
	}
	p.expect(lex.Punct, ")")
	return args
}
