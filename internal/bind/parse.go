package bind

import (
	"strconv"
	"strings"

	"shaderopt/internal/lex"
)

// Grammar is one source language's share of the statement and expression
// grammar: a few facts about its syntax, and hooks for the declarations,
// types and primaries only it has.
type Grammar struct {
	// IntSuffix and FloatSuffix are the suffix letters a literal token's
	// text may keep ("uUlL" and "fFhH" in HLSL, "iu" and "fh" in WGSL;
	// MSL's lexer drops them).
	IntSuffix, FloatSuffix string
	// CStyle marks C's statement syntax (HLSL, MSL): conditions in
	// parentheses, a single unbraced statement as a body, and prefix
	// ++/--. WGSL's parentheses are optional and its bodies braced.
	CStyle bool
	// Ternary, Methods and ModAssign report whether ?:, recv.name(args)
	// method calls and %= exist.
	Ternary, Methods, ModAssign bool
	// Blocks makes a bare block and a lone ';' statements (HLSL, WGSL).
	Blocks bool
	// Unsized lets a C declarator's `[]` take its length from a brace
	// initializer, so an explicit length must be positive (HLSL). Without
	// it `[0]` parses and the type resolver rejects it (MSL).
	Unsized bool
	// TrailingComma and UnaryIncDec are MSL's: a call's arguments may
	// end in a comma, and the operand of a prefix ++/-- is any unary
	// expression rather than a postfix one.
	TrailingComma, UnaryIncDec bool

	// DeclStart reports whether the current token starts a local
	// declaration, and Decl parses one without its ';' (CDecl for C
	// declarators; WGSL's let and var).
	DeclStart func(p *Parser) bool
	Decl      func(p *Parser) Stmt
	// Type parses a type reference for CDecl, recording an error on a
	// non-type.
	Type func(p *Parser) *TypeExpr
	// Primary parses the primary expressions only this language has,
	// starting at an identifier; it reports false to leave the identifier
	// to the shared grammar. May be nil.
	Primary func(p *Parser) (Expr, bool)
	// Attrs skips statement attributes such as HLSL's [unroll]. May be nil.
	Attrs func(p *Parser)
}

// Parser is the recursive-descent parser the HLSL, WGSL and MSL frontends
// share for everything below module scope: blocks, statements and
// expressions, brace initializers, C-style array declarators and literals.
// A frontend parses its module-level declarations itself, on the same
// cursor, and calls Block, Expr, Initializer and the rest for the parts
// every language has.
type Parser struct {
	lex.Cursor
	g *Grammar
}

// NewParser returns a parser over toks with g's rules.
func NewParser(toks []lex.Token, g *Grammar) *Parser {
	return &Parser{Cursor: lex.Cursor{Toks: toks}, g: g}
}

// At reports whether the current token is punctuation or a keyword
// spelled text.
func (p *Parser) At(text string) bool {
	t := p.Cur()
	return (t.Kind == lex.Punct || t.Kind == lex.Keyword) && t.Text == text
}

// Ident consumes an identifier and reports whether there was one;
// otherwise it records that what was expected and leaves the token.
func (p *Parser) Ident(what string) (lex.Token, bool) {
	t := p.Cur()
	if t.Kind != lex.Ident {
		p.Errorf(t.Pos, "expected %s, found %s", what, t)
		return t, false
	}
	return p.Next(), true
}

// --- statements ---

// Block parses a brace-delimited statement list.
func (p *Parser) Block() *BlockStmt {
	open := p.Expect("{")
	blk := &BlockStmt{Pos: open.Pos}
	for {
		t := p.Cur()
		if t.Kind == lex.EOF {
			p.Errorf(t.Pos, "unterminated block")
			return blk
		}
		if p.Accept("}") {
			return blk
		}
		if s := p.stmt(); s != nil {
			blk.Stmts = append(blk.Stmts, s)
		}
		if len(p.Errs) > 8 {
			return blk
		}
	}
}

func (p *Parser) stmt() Stmt {
	if !p.Nest() {
		return nil
	}
	defer p.Unnest()
	if p.g.Attrs != nil {
		p.g.Attrs(p)
	}
	t := p.Cur()
	switch {
	case p.g.DeclStart(p):
		return p.declSemi()
	case p.g.Blocks && p.At("{"):
		return p.Block()
	case p.g.Blocks && p.At(";"):
		p.Next()
		return nil
	case t.Kind == lex.Keyword:
		switch t.Text {
		case "if":
			return p.ifStmt()
		case "for":
			return p.forStmt()
		case "while":
			p.Next()
			cond := p.cond()
			return &WhileStmt{Pos: t.Pos, Cond: cond, Body: p.body()}
		case "return":
			p.Next()
			var res Expr
			if !p.At(";") {
				res = p.Expr()
			}
			p.Expect(";")
			return &ReturnStmt{Pos: t.Pos, Result: res}
		case "discard":
			p.Next()
			p.Expect(";")
			return &DiscardStmt{Pos: t.Pos}
		case "break":
			p.Next()
			p.Expect(";")
			return &BreakStmt{Pos: t.Pos}
		case "continue":
			p.Next()
			p.Expect(";")
			return &ContinueStmt{Pos: t.Pos}
		}
		p.Errorf(t.Pos, "unexpected keyword %q in statement", t.Text)
		p.Sync()
		return nil
	}
	s := p.simple()
	p.Expect(";")
	return s
}

// declSemi parses a local declaration and its ';'.
func (p *Parser) declSemi() Stmt {
	s := p.g.Decl(p)
	if s != nil {
		p.Expect(";")
	}
	return s
}

// simple parses an assignment, increment or expression statement without
// its ';'. Increments desugar to compound assignments.
func (p *Parser) simple() Stmt {
	t := p.Cur()
	if p.g.CStyle && t.Kind == lex.Punct && (t.Text == "++" || t.Text == "--") {
		p.Next()
		var lhs Expr
		if p.g.UnaryIncDec {
			lhs = p.unary()
		} else {
			lhs = p.postfix()
		}
		return &AssignStmt{Pos: t.Pos, LHS: lhs, Op: t.Text[:1] + "=", RHS: &IntLitExpr{Pos: t.Pos, Value: 1}}
	}
	lhs := p.Expr()
	if op := p.Cur(); op.Kind == lex.Punct {
		switch op.Text {
		case "=", "+=", "-=", "*=", "/=", "%=":
			if op.Text == "%=" && !p.g.ModAssign {
				break
			}
			p.Next()
			return &AssignStmt{Pos: t.Pos, LHS: lhs, Op: op.Text, RHS: p.Expr()}
		case "++", "--":
			p.Next()
			return &AssignStmt{Pos: t.Pos, LHS: lhs, Op: op.Text[:1] + "=", RHS: &IntLitExpr{Pos: op.Pos, Value: 1}}
		}
	}
	return &ExprStmt{Pos: t.Pos, X: lhs}
}

// cond parses an if or while condition: parenthesised in C, optionally so
// in WGSL.
func (p *Parser) cond() Expr {
	paren := p.g.CStyle || p.At("(")
	if paren {
		p.Expect("(")
	}
	x := p.Expr()
	if paren {
		p.Expect(")")
	}
	return x
}

// body parses a branch or loop body: a block, or in C a single statement
// wrapped in one.
func (p *Parser) body() *BlockStmt {
	if !p.g.CStyle || p.At("{") {
		return p.Block()
	}
	s := p.stmt()
	blk := &BlockStmt{Pos: p.Cur().Pos}
	if s != nil {
		blk.Stmts = append(blk.Stmts, s)
	}
	return blk
}

func (p *Parser) ifStmt() Stmt {
	t := p.Next()
	cond := p.cond()
	s := &IfStmt{Pos: t.Pos, Cond: cond, Then: p.body()}
	if p.Accept("else") {
		if p.g.Attrs != nil {
			p.g.Attrs(p)
		}
		if p.At("if") {
			s.Else = p.stmt() // through stmt, so an else-if chain nests
		} else {
			s.Else = p.body()
		}
	}
	return s
}

func (p *Parser) forStmt() Stmt {
	s := &ForStmt{Pos: p.Next().Pos}
	p.Expect("(")
	if !p.At(";") {
		if p.g.DeclStart(p) {
			s.Init = p.g.Decl(p)
		} else {
			s.Init = p.simple()
		}
	}
	p.Expect(";")
	if !p.At(";") {
		s.Cond = p.Expr()
	}
	p.Expect(";")
	if !p.At(")") {
		if !p.g.CStyle && p.g.DeclStart(p) {
			// WGSL's update statement is an assignment, an increment or
			// a call; skip the declaration to resynchronise at the ')'.
			p.Errorf(p.Cur().Pos, "a declaration cannot be a for loop's post statement")
			p.declSemi()
		} else {
			s.Post = p.simple()
		}
	}
	p.Expect(")")
	s.Body = p.body()
	return s
}

// --- declarators ---

// CDecl parses the rest of a C-style local declaration, `type name [N]
// [= init]`, without its ';'. pos and isConst describe the qualifiers
// the caller consumed.
func (p *Parser) CDecl(pos lex.Pos, isConst bool) Stmt {
	ty := p.g.Type(p)
	if ty == nil {
		p.Sync()
		return nil
	}
	nm, ok := p.Ident("name in declaration")
	if !ok {
		p.Sync()
		return nil
	}
	ty = p.ArraySuffix(ty)
	var init Expr
	if p.Accept("=") {
		init = p.Initializer(ty)
	}
	return &DeclStmt{Pos: pos, Const: isConst, Type: ty, Name: nm.Text, Init: init}
}

// ArraySuffix folds an optional C-style `[N]` declarator suffix into an
// array of ty. With Unsized, `[]` leaves Len 0 for a brace initializer to
// size.
func (p *Parser) ArraySuffix(ty *TypeExpr) *TypeExpr {
	if !p.Accept("[") {
		return ty
	}
	arr := &TypeExpr{Pos: ty.Pos, Name: "array", Elem: ty}
	if p.g.Unsized && p.Accept("]") {
		return arr
	}
	arr.Len = p.ArrayLen(p.g.Unsized)
	p.Expect("]")
	return arr
}

// ArrayLen parses an array length literal; positive rejects one below 1.
func (p *Parser) ArrayLen(positive bool) int {
	t := p.Cur()
	if t.Kind != lex.IntLit {
		p.Errorf(t.Pos, "expected array length, found %s", t)
		return 0
	}
	p.Next()
	n, err := strconv.Atoi(strings.TrimRight(t.Text, p.g.IntSuffix))
	if err != nil || positive && n < 1 {
		p.Errorf(t.Pos, "bad array length %q", t.Text)
	}
	return n
}

// Initializer parses a declaration's initializer: an expression, or a
// brace list, which sizes an unsized array type ty.
func (p *Parser) Initializer(ty *TypeExpr) Expr {
	if !p.At("{") {
		return p.Expr()
	}
	list := p.BraceList()
	if p.g.Unsized && ty.Name == "array" && ty.Len == 0 {
		ty.Len = len(list.Elems)
	}
	return list
}

// BraceList parses `{a, b, c}`; a trailing comma is allowed.
func (p *Parser) BraceList() *InitListExpr {
	list := &InitListExpr{Pos: p.Expect("{").Pos}
	for !p.Accept("}") {
		if p.Cur().Kind == lex.EOF {
			p.Errorf(p.Cur().Pos, "unterminated initializer list")
			return list
		}
		list.Elems = append(list.Elems, p.Expr())
		if !p.Accept(",") && !p.At("}") {
			p.Errorf(p.Cur().Pos, "expected ',' or '}' in initializer, found %s", p.Cur())
			return list
		}
	}
	return list
}

// --- expressions ---

// binPrec is the binary operator precedence, higher binding tighter. The
// ternary ?: sits below every binary operator and associates right.
var binPrec = map[string]int{
	"||": 1, "&&": 2,
	"==": 3, "!=": 3,
	"<": 4, ">": 4, "<=": 4, ">=": 4,
	"+": 5, "-": 5,
	"*": 6, "/": 6, "%": 6,
}

// Expr parses an expression.
func (p *Parser) Expr() Expr {
	if !p.Nest() {
		return &IntLitExpr{Pos: p.Cur().Pos}
	}
	defer p.Unnest()
	x := p.binary(1)
	if !p.g.Ternary || !p.At("?") {
		return x
	}
	q := p.Next()
	thn := p.Expr()
	p.Expect(":")
	return &CondExpr{Pos: q.Pos, Cond: x, Then: thn, Else: p.Expr()}
}

func (p *Parser) binary(minPrec int) Expr {
	lhs := p.unary()
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
		rhs := p.binary(prec + 1)
		lhs = &BinaryExpr{Pos: t.Pos, Op: t.Text, X: lhs, Y: rhs}
	}
}

func (p *Parser) unary() Expr {
	t := p.Cur()
	if t.Kind != lex.Punct || t.Text != "-" && t.Text != "!" && t.Text != "+" {
		return p.postfix()
	}
	if !p.Nest() {
		return &IntLitExpr{Pos: t.Pos}
	}
	defer p.Unnest()
	p.Next()
	x := p.unary()
	if t.Text == "+" {
		return x
	}
	return &UnaryExpr{Pos: t.Pos, Op: t.Text, X: x}
}

func (p *Parser) postfix() Expr {
	x := p.primary()
	for {
		t := p.Cur()
		switch {
		case p.Accept("["):
			idx := p.Expr()
			p.Expect("]")
			x = &IndexExpr{Pos: t.Pos, X: x, Index: idx}
		case p.Accept("."):
			nm, ok := p.Ident("member name after '.'")
			if !ok {
				return x
			}
			if p.g.Methods && p.At("(") {
				x = &MethodCallExpr{Pos: t.Pos, Recv: x, Method: nm.Text, Args: p.Args(nm.Text)}
			} else {
				x = &MemberExpr{Pos: t.Pos, X: x, Name: nm.Text}
			}
		default:
			return x
		}
	}
}

func (p *Parser) primary() Expr {
	t := p.Cur()
	switch t.Kind {
	case lex.IntLit:
		p.Next()
		return &IntLitExpr{Pos: t.Pos, Value: p.intValue(t)}
	case lex.FloatLit:
		p.Next()
		v, err := strconv.ParseFloat(strings.TrimRight(t.Text, p.g.FloatSuffix), 64)
		if err != nil {
			p.Errorf(t.Pos, "bad float literal %q", t.Text)
		}
		return &FloatLitExpr{Pos: t.Pos, Value: v}
	case lex.BoolLit:
		p.Next()
		return &BoolLitExpr{Pos: t.Pos, Value: t.Text == "true"}
	case lex.Ident:
		if p.g.Primary != nil {
			if x, ok := p.g.Primary(p); ok {
				return x
			}
		}
		p.Next()
		if p.At("(") {
			return &CallExpr{Pos: t.Pos, Callee: t.Text, Args: p.Args(t.Text)}
		}
		return &IdentExpr{Pos: t.Pos, Name: t.Text}
	case lex.Punct:
		if p.Accept("(") {
			x := p.Expr()
			p.Expect(")")
			return x
		}
	}
	p.Errorf(t.Pos, "unexpected token %s in expression", t)
	p.Next()
	return &IntLitExpr{Pos: t.Pos}
}

// intValue parses an int literal token's value. Decimal and hex literals
// alike must fit an int64: a hex literal past it is an error, not a
// negative value.
func (p *Parser) intValue(t lex.Token) int64 {
	text := strings.TrimRight(t.Text, p.g.IntSuffix)
	if strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X") {
		v, err := strconv.ParseInt(text[2:], 16, 64)
		if err != nil {
			p.Errorf(t.Pos, "bad hex literal %q", t.Text)
		}
		return v
	}
	v, err := strconv.ParseInt(text, 10, 64)
	if err != nil {
		p.Errorf(t.Pos, "bad int literal %q", t.Text)
	}
	return v
}

// Args parses a call's parenthesised argument list; callee names the
// call in errors.
func (p *Parser) Args(callee string) []Expr {
	p.Expect("(")
	if p.Accept(")") {
		return nil
	}
	var args []Expr
	for {
		args = append(args, p.Expr())
		if p.Accept(")") {
			return args
		}
		p.Expect(",")
		if p.g.TrailingComma && p.Accept(")") {
			return args
		}
		if p.Cur().Kind == lex.EOF {
			p.Errorf(p.Cur().Pos, "unterminated call to %q", callee)
			return args
		}
	}
}
