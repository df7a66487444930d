package glsl

import (
	"fmt"
	"strconv"
	"strings"
)

// Parser is a recursive-descent parser for the GLSL subset. Input must be
// preprocessed (no directives except an optional leading #version, which the
// parser records on the Shader).
type Parser struct {
	toks []Token
	pos  int
	errs []error
}

// Parse parses a complete shader source.
func Parse(src string) (*Shader, error) {
	toks, err := LexAll(src)
	if err != nil {
		return nil, err
	}
	p := &Parser{toks: toks}
	sh := &Shader{Tokens: len(toks)}
	for p.cur().Kind == PPLine {
		line := strings.TrimSpace(p.cur().Text)
		switch {
		case strings.HasPrefix(line, "#version"):
			sh.Version = strings.TrimSpace(strings.TrimPrefix(line, "#version"))
		case strings.HasPrefix(line, "#extension"), strings.HasPrefix(line, "#pragma"):
			// Accepted and dropped; they do not affect the subset semantics.
		default:
			return nil, fmt.Errorf("%s: unpreprocessed directive %q", p.cur().Pos, firstLine(line))
		}
		p.next()
	}
	for p.cur().Kind != EOF {
		d := p.parseDecl()
		if d != nil {
			sh.Decls = append(sh.Decls, d)
		}
		if len(p.errs) > 8 {
			break
		}
	}
	if len(p.errs) > 0 {
		return nil, p.errs[0]
	}
	return sh, nil
}

// MustParse parses src and panics on error. For tests and fixed templates.
func MustParse(src string) *Shader {
	sh, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return sh
}

func (p *Parser) cur() Token {
	if p.pos >= len(p.toks) {
		return Token{Kind: EOF}
	}
	return p.toks[p.pos]
}

func (p *Parser) peekTok(off int) Token {
	if p.pos+off >= len(p.toks) {
		return Token{Kind: EOF}
	}
	return p.toks[p.pos+off]
}

func (p *Parser) next() Token {
	t := p.cur()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *Parser) errorf(pos Pos, format string, args ...any) {
	p.errs = append(p.errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// accept consumes the next token if it is punctuation or keyword text.
func (p *Parser) accept(text string) bool {
	t := p.cur()
	if (t.Kind == Punct || t.Kind == Keyword) && t.Text == text {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(text string) Token {
	t := p.cur()
	if (t.Kind == Punct || t.Kind == Keyword) && t.Text == text {
		return p.next()
	}
	p.errorf(t.Pos, "expected %q, found %s", text, t)
	return t
}

// sync skips tokens until after the next semicolon or closing brace, to
// recover from a parse error.
func (p *Parser) sync() {
	for {
		t := p.cur()
		if t.Kind == EOF {
			return
		}
		p.next()
		if t.Kind == Punct && (t.Text == ";" || t.Text == "}") {
			return
		}
	}
}

// --- Declarations ---

func (p *Parser) parseDecl() Decl {
	t := p.cur()
	if t.Kind == Punct && t.Text == ";" {
		p.next()
		return nil
	}

	// precision mediump float;
	if t.Kind == Keyword && t.Text == "precision" {
		p.next()
		prec := p.parsePrecision()
		ty := p.cur()
		if ty.Kind != TypeName {
			p.errorf(ty.Pos, "expected type in precision declaration, found %s", ty)
			p.sync()
			return nil
		}
		p.next()
		p.expect(";")
		return &PrecisionDecl{Pos: t.Pos, Precision: prec, Type: ty.Text}
	}

	layout := ""
	if t.Kind == Keyword && t.Text == "layout" {
		p.next()
		layout = p.parseLayoutBody()
		t = p.cur()
	}

	qual := QualNone
	// Interpolation qualifiers are parsed and dropped.
	for p.cur().Kind == Keyword {
		switch p.cur().Text {
		case "flat", "smooth", "noperspective", "centroid", "invariant":
			p.next()
			continue
		}
		break
	}
	switch p.cur().Text {
	case "const":
		qual = QualConst
		p.next()
	case "uniform":
		qual = QualUniform
		p.next()
	case "in", "varying", "attribute":
		qual = QualIn
		p.next()
	case "out":
		qual = QualOut
		p.next()
	}
	prec := p.parsePrecision()

	ty := p.cur()
	if ty.Kind != TypeName {
		p.errorf(ty.Pos, "expected type name, found %s", ty)
		p.sync()
		return nil
	}
	p.next()
	spec := p.parseArraySuffix(Scalar(ty.Text))

	name := p.cur()
	if name.Kind != Ident {
		p.errorf(name.Pos, "expected identifier, found %s", name)
		p.sync()
		return nil
	}
	p.next()

	// Function definition or prototype.
	if p.cur().Text == "(" && p.cur().Kind == Punct {
		return p.parseFuncRest(ty, spec, name)
	}

	spec = p.parseArraySuffix(spec)
	var init Expr
	if p.accept("=") {
		init = p.parseExpr()
	}
	p.expect(";")
	return &GlobalVar{
		Pos: t.Pos, Qual: qual, Precision: prec, Layout: layout,
		Type: spec, Name: name.Text, Init: init,
	}
}

func (p *Parser) parsePrecision() string {
	t := p.cur()
	if t.Kind == Keyword && (t.Text == "highp" || t.Text == "mediump" || t.Text == "lowp") {
		p.next()
		return t.Text
	}
	return ""
}

func (p *Parser) parseLayoutBody() string {
	p.expect("(")
	depth := 1
	var sb strings.Builder
	for depth > 0 {
		t := p.cur()
		if t.Kind == EOF {
			p.errorf(t.Pos, "unterminated layout(...)")
			break
		}
		p.next()
		if t.Kind == Punct && t.Text == "(" {
			depth++
		}
		if t.Kind == Punct && t.Text == ")" {
			depth--
			if depth == 0 {
				break
			}
		}
		if sb.Len() > 0 {
			sb.WriteByte(' ')
		}
		sb.WriteString(t.Text)
	}
	return sb.String()
}

// parseArraySuffix parses zero or more "[N]" or "[]" suffixes onto spec.
func (p *Parser) parseArraySuffix(spec TypeSpec) TypeSpec {
	for p.cur().Kind == Punct && p.cur().Text == "[" {
		// Only treat as array suffix if followed by int literal or ']'.
		nt := p.peekTok(1)
		if nt.Kind == IntLit {
			p.next()
			n, _ := strconv.Atoi(nt.Text)
			p.next()
			p.expect("]")
			spec.ArrayLen = n
		} else if nt.Kind == Punct && nt.Text == "]" {
			p.next()
			p.next()
			spec.ArrayLen = 0
		} else {
			break
		}
	}
	return spec
}

func (p *Parser) parseFuncRest(retTok Token, ret TypeSpec, name Token) Decl {
	p.expect("(")
	var params []Param
	if !p.accept(")") {
		for {
			prm, ok := p.parseParam()
			if !ok {
				p.sync()
				return nil
			}
			if prm.Type.Name != "void" {
				params = append(params, prm)
			}
			if p.accept(")") {
				break
			}
			p.expect(",")
		}
	}
	if p.accept(";") {
		return &FuncDecl{Pos: retTok.Pos, Return: ret, Name: name.Text, Params: params}
	}
	body := p.parseBlock()
	return &FuncDecl{Pos: retTok.Pos, Return: ret, Name: name.Text, Params: params, Body: body}
}

func (p *Parser) parseParam() (Param, bool) {
	var prm Param
	for p.cur().Kind == Keyword {
		switch p.cur().Text {
		case "in":
			prm.Qual = QualIn
			p.next()
			continue
		case "out":
			prm.Qual = QualOut
			p.next()
			continue
		case "inout":
			prm.Qual = QualInOut
			p.next()
			continue
		case "const", "highp", "mediump", "lowp":
			p.next()
			continue
		}
		break
	}
	ty := p.cur()
	if ty.Kind != TypeName {
		p.errorf(ty.Pos, "expected parameter type, found %s", ty)
		return prm, false
	}
	p.next()
	prm.Type = p.parseArraySuffix(Scalar(ty.Text))
	if prm.Type.Name == "void" {
		return prm, true
	}
	nm := p.cur()
	if nm.Kind != Ident {
		p.errorf(nm.Pos, "expected parameter name, found %s", nm)
		return prm, false
	}
	p.next()
	prm.Name = nm.Text
	prm.Type = p.parseArraySuffix(prm.Type)
	return prm, true
}

// --- Statements ---

func (p *Parser) parseBlock() *BlockStmt {
	open := p.expect("{")
	blk := &BlockStmt{Pos: open.Pos}
	for {
		t := p.cur()
		if t.Kind == EOF {
			p.errorf(t.Pos, "unterminated block")
			return blk
		}
		if t.Kind == Punct && t.Text == "}" {
			p.next()
			return blk
		}
		s := p.parseStmt()
		if s != nil {
			blk.Stmts = append(blk.Stmts, s)
		}
		if len(p.errs) > 8 {
			return blk
		}
	}
}

func (p *Parser) parseStmt() Stmt {
	t := p.cur()
	switch {
	case t.Kind == Punct && t.Text == "{":
		return p.parseBlock()
	case t.Kind == Punct && t.Text == ";":
		p.next()
		return nil
	case t.Kind == Keyword:
		switch t.Text {
		case "if":
			return p.parseIf()
		case "for":
			return p.parseFor()
		case "while":
			return p.parseWhile()
		case "return":
			p.next()
			var res Expr
			if !(p.cur().Kind == Punct && p.cur().Text == ";") {
				res = p.parseExpr()
			}
			p.expect(";")
			return &ReturnStmt{Pos: t.Pos, Result: res}
		case "discard":
			p.next()
			p.expect(";")
			return &DiscardStmt{Pos: t.Pos}
		case "break":
			p.next()
			p.expect(";")
			return &BreakStmt{Pos: t.Pos}
		case "continue":
			p.next()
			p.expect(";")
			return &ContinueStmt{Pos: t.Pos}
		case "const", "highp", "mediump", "lowp":
			return p.parseDeclStmt()
		default:
			p.errorf(t.Pos, "unexpected keyword %q in statement", t.Text)
			p.sync()
			return nil
		}
	case t.Kind == TypeName:
		// Type name followed by identifier: declaration. Otherwise it's a
		// constructor expression statement (rare but legal).
		if p.peekTok(1).Kind == Ident {
			return p.parseDeclStmt()
		}
		return p.parseSimpleStmtSemi()
	default:
		return p.parseSimpleStmtSemi()
	}
}

func (p *Parser) parseDeclStmt() Stmt {
	t := p.cur()
	isConst := false
	for p.cur().Kind == Keyword {
		switch p.cur().Text {
		case "const":
			isConst = true
			p.next()
			continue
		case "highp", "mediump", "lowp":
			p.next()
			continue
		}
		break
	}
	ty := p.cur()
	if ty.Kind != TypeName {
		p.errorf(ty.Pos, "expected type in declaration, found %s", ty)
		p.sync()
		return nil
	}
	p.next()
	spec := p.parseArraySuffix(Scalar(ty.Text))
	nm := p.cur()
	if nm.Kind != Ident {
		p.errorf(nm.Pos, "expected name in declaration, found %s", nm)
		p.sync()
		return nil
	}
	p.next()
	spec = p.parseArraySuffix(spec)
	var init Expr
	if p.accept("=") {
		init = p.parseExpr()
	}
	p.expect(";")
	return &DeclStmt{Pos: t.Pos, Const: isConst, Type: spec, Name: nm.Text, Init: init}
}

// parseSimpleStmt parses an assignment, inc/dec, or expression statement,
// without consuming a trailing semicolon.
func (p *Parser) parseSimpleStmt() Stmt {
	t := p.cur()
	lhs := p.parseExpr()
	cur := p.cur()
	if cur.Kind == Punct {
		switch cur.Text {
		case "=", "+=", "-=", "*=", "/=":
			p.next()
			rhs := p.parseExpr()
			return &AssignStmt{Pos: t.Pos, LHS: lhs, Op: cur.Text, RHS: rhs}
		case "++":
			p.next()
			return &AssignStmt{Pos: t.Pos, LHS: lhs, Op: "+=", RHS: &IntLitExpr{Pos: cur.Pos, Value: 1}}
		case "--":
			p.next()
			return &AssignStmt{Pos: t.Pos, LHS: lhs, Op: "-=", RHS: &IntLitExpr{Pos: cur.Pos, Value: 1}}
		}
	}
	return &ExprStmt{Pos: t.Pos, X: lhs}
}

func (p *Parser) parseSimpleStmtSemi() Stmt {
	s := p.parseSimpleStmt()
	p.expect(";")
	return s
}

func (p *Parser) parseIf() Stmt {
	t := p.expect("if")
	p.expect("(")
	cond := p.parseExpr()
	p.expect(")")
	then := p.parseBranchBody()
	var els Stmt
	if p.accept("else") {
		if p.cur().Kind == Keyword && p.cur().Text == "if" {
			els = p.parseIf()
		} else {
			els = p.parseBranchBody()
		}
	}
	return &IfStmt{Pos: t.Pos, Cond: cond, Then: then, Else: els}
}

// parseBranchBody parses either a block or a single statement wrapped into
// a block, so downstream code only ever sees blocks.
func (p *Parser) parseBranchBody() *BlockStmt {
	if p.cur().Kind == Punct && p.cur().Text == "{" {
		return p.parseBlock()
	}
	s := p.parseStmt()
	blk := &BlockStmt{Pos: p.cur().Pos}
	if s != nil {
		blk.Stmts = append(blk.Stmts, s)
	}
	return blk
}

func (p *Parser) parseFor() Stmt {
	t := p.expect("for")
	p.expect("(")
	var init Stmt
	if !(p.cur().Kind == Punct && p.cur().Text == ";") {
		if p.cur().Kind == TypeName || (p.cur().Kind == Keyword && p.cur().Text == "const") {
			init = p.parseDeclStmt() // consumes ';'
		} else {
			init = p.parseSimpleStmtSemi()
		}
	} else {
		p.next()
	}
	var cond Expr
	if !(p.cur().Kind == Punct && p.cur().Text == ";") {
		cond = p.parseExpr()
	}
	p.expect(";")
	var post Stmt
	if !(p.cur().Kind == Punct && p.cur().Text == ")") {
		post = p.parseSimpleStmt()
	}
	p.expect(")")
	body := p.parseBranchBody()
	return &ForStmt{Pos: t.Pos, Init: init, Cond: cond, Post: post, Body: body}
}

func (p *Parser) parseWhile() Stmt {
	t := p.expect("while")
	p.expect("(")
	cond := p.parseExpr()
	p.expect(")")
	body := p.parseBranchBody()
	return &WhileStmt{Pos: t.Pos, Cond: cond, Body: body}
}

// --- Expressions ---

// Binary operator precedence, higher binds tighter.
var binPrec = map[string]int{
	"||": 1, "^^": 2, "&&": 3,
	"==": 4, "!=": 4,
	"<": 5, ">": 5, "<=": 5, ">=": 5,
	"+": 6, "-": 6,
	"*": 7, "/": 7, "%": 7,
}

func (p *Parser) parseExpr() Expr { return p.parseTernary() }

func (p *Parser) parseTernary() Expr {
	cond := p.parseBinary(1)
	if p.cur().Kind == Punct && p.cur().Text == "?" {
		q := p.next()
		thn := p.parseExpr()
		p.expect(":")
		els := p.parseTernary()
		return &CondExpr{Pos: q.Pos, Cond: cond, Then: thn, Else: els}
	}
	return cond
}

func (p *Parser) parseBinary(minPrec int) Expr {
	lhs := p.parseUnary()
	for {
		t := p.cur()
		if t.Kind != Punct {
			return lhs
		}
		prec, ok := binPrec[t.Text]
		if !ok || prec < minPrec {
			return lhs
		}
		p.next()
		rhs := p.parseBinary(prec + 1)
		lhs = &BinaryExpr{Pos: t.Pos, Op: t.Text, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnary() Expr {
	t := p.cur()
	if t.Kind == Punct {
		switch t.Text {
		case "-", "!":
			p.next()
			return &UnaryExpr{Pos: t.Pos, Op: t.Text, X: p.parseUnary()}
		case "+":
			p.next()
			return p.parseUnary()
		case "++", "--":
			// Pre-increment used as expression is outside the subset; parse
			// operand and report.
			p.errorf(t.Pos, "prefix %q not supported as expression", t.Text)
			p.next()
			return p.parseUnary()
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() Expr {
	x := p.parsePrimary()
	for {
		t := p.cur()
		if t.Kind != Punct {
			return x
		}
		switch t.Text {
		case "[":
			p.next()
			idx := p.parseExpr()
			p.expect("]")
			x = &IndexExpr{Pos: t.Pos, X: x, Index: idx}
		case ".":
			p.next()
			nm := p.cur()
			if nm.Kind != Ident && nm.Kind != Keyword {
				p.errorf(nm.Pos, "expected field name after '.', found %s", nm)
				return x
			}
			p.next()
			x = &FieldExpr{Pos: t.Pos, X: x, Name: nm.Text}
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimary() Expr {
	t := p.cur()
	switch t.Kind {
	case IntLit:
		p.next()
		text := strings.TrimRight(t.Text, "uU")
		var v int64
		if strings.HasPrefix(text, "0x") || strings.HasPrefix(text, "0X") {
			u, err := strconv.ParseUint(text[2:], 16, 64)
			if err != nil {
				p.errorf(t.Pos, "bad hex literal %q", t.Text)
			}
			v = int64(u)
		} else {
			var err error
			v, err = strconv.ParseInt(text, 10, 64)
			if err != nil {
				p.errorf(t.Pos, "bad int literal %q", t.Text)
			}
		}
		return &IntLitExpr{Pos: t.Pos, Value: v}
	case FloatLit:
		p.next()
		text := strings.TrimRight(t.Text, "fFlL")
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			p.errorf(t.Pos, "bad float literal %q", t.Text)
		}
		return &FloatLitExpr{Pos: t.Pos, Value: v}
	case BoolLit:
		p.next()
		return &BoolLitExpr{Pos: t.Pos, Value: t.Text == "true"}
	case Ident:
		p.next()
		if p.cur().Kind == Punct && p.cur().Text == "(" {
			return p.parseCallArgs(t.Pos, t.Text)
		}
		return &IdentExpr{Pos: t.Pos, Name: t.Text}
	case TypeName:
		p.next()
		// Array constructor: vec2[3](...) or vec2[](...).
		if p.cur().Kind == Punct && p.cur().Text == "[" {
			spec := p.parseArraySuffix(Scalar(t.Text))
			call := p.parseCallArgs(t.Pos, t.Text)
			c := call.(*CallExpr)
			n := spec.ArrayLen
			if n == 0 {
				n = len(c.Args)
			}
			return &ArrayCtorExpr{Pos: t.Pos, Elem: Scalar(t.Text), Len: n, Elems: c.Args}
		}
		return p.parseCallArgs(t.Pos, t.Text)
	case Punct:
		if t.Text == "(" {
			p.next()
			e := p.parseExpr()
			p.expect(")")
			return e
		}
	}
	p.errorf(t.Pos, "unexpected token %s in expression", t)
	p.next()
	return &IntLitExpr{Pos: t.Pos, Value: 0}
}

func (p *Parser) parseCallArgs(pos Pos, callee string) Expr {
	p.expect("(")
	call := &CallExpr{Pos: pos, Callee: callee}
	if p.accept(")") {
		return call
	}
	for {
		call.Args = append(call.Args, p.parseExpr())
		if p.accept(")") {
			return call
		}
		p.expect(",")
		if p.cur().Kind == EOF {
			p.errorf(p.cur().Pos, "unterminated call to %q", callee)
			return call
		}
	}
}
