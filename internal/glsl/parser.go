package glsl

import (
	"fmt"
	"strconv"
	"strings"

	"shaderopt/internal/lex"
)

// Parser is a recursive-descent parser for the GLSL subset. Input must be
// preprocessed (no directives except an optional leading #version, which the
// parser records on the Shader).
type Parser struct {
	lex.Cursor
}

// Parse parses a complete shader source. The tree keeps no token, so
// Parse scans into a recycled token slice and hands it back on return.
func Parse(src string) (*Shader, error) {
	toks, err := lexWith(lex.NewRecycledScanner(src, presize(src)))
	defer lex.Recycle(toks)
	if err != nil {
		return nil, err
	}
	p := &Parser{lex.Cursor{Toks: toks}}
	sh := &Shader{Tokens: len(toks)}
	for p.Cur().Kind == lex.PPLine {
		line := strings.TrimSpace(p.Cur().Text)
		switch {
		case strings.HasPrefix(line, "#version"):
			sh.Version = strings.TrimSpace(strings.TrimPrefix(line, "#version"))
		case strings.HasPrefix(line, "#extension"), strings.HasPrefix(line, "#pragma"):
			// Accepted and dropped; they do not affect the subset semantics.
		default:
			return nil, fmt.Errorf("%s: unpreprocessed directive %q", p.Cur().Pos, firstLine(line))
		}
		p.Next()
	}
	for p.Cur().Kind != lex.EOF {
		d := p.parseDecl()
		if d != nil {
			sh.Decls = append(sh.Decls, d)
		}
		if len(p.Errs) > 8 {
			break
		}
	}
	if len(p.Errs) > 0 {
		return nil, p.Errs[0]
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

// --- Declarations ---

func (p *Parser) parseDecl() Decl {
	t := p.Cur()
	if t.Kind == lex.Punct && t.Text == ";" {
		p.Next()
		return nil
	}

	// precision mediump float;
	if t.Kind == lex.Keyword && t.Text == "precision" {
		p.Next()
		prec := p.parsePrecision()
		ty := p.Cur()
		if ty.Kind != lex.TypeName {
			p.Errorf(ty.Pos, "expected type in precision declaration, found %s", ty)
			p.Sync()
			return nil
		}
		p.Next()
		p.Expect(";")
		return &PrecisionDecl{Pos: t.Pos, Precision: prec, Type: ty.Text}
	}

	layout := ""
	if t.Kind == lex.Keyword && t.Text == "layout" {
		p.Next()
		layout = p.parseLayoutBody()
		t = p.Cur()
	}

	qual := QualNone
	// Interpolation qualifiers are parsed and dropped.
	for p.Cur().Kind == lex.Keyword {
		switch p.Cur().Text {
		case "flat", "smooth", "noperspective", "centroid", "invariant":
			p.Next()
			continue
		}
		break
	}
	switch p.Cur().Text {
	case "const":
		qual = QualConst
		p.Next()
	case "uniform":
		qual = QualUniform
		p.Next()
	case "in", "varying", "attribute":
		qual = QualIn
		p.Next()
	case "out":
		qual = QualOut
		p.Next()
	}
	prec := p.parsePrecision()

	ty := p.Cur()
	if ty.Kind != lex.TypeName {
		p.Errorf(ty.Pos, "expected type name, found %s", ty)
		p.Sync()
		return nil
	}
	p.Next()
	spec := p.parseArraySuffix(Scalar(ty.Text))

	name := p.Cur()
	if name.Kind != lex.Ident {
		p.Errorf(name.Pos, "expected identifier, found %s", name)
		p.Sync()
		return nil
	}
	p.Next()

	// Function definition or prototype.
	if p.Cur().Text == "(" && p.Cur().Kind == lex.Punct {
		return p.parseFuncRest(ty, spec, name)
	}

	spec = p.parseArraySuffix(spec)
	var init Expr
	if p.Accept("=") {
		init = p.parseExpr()
	}
	p.Expect(";")
	return &GlobalVar{
		Pos: t.Pos, Qual: qual, Precision: prec, Layout: layout,
		Type: spec, Name: name.Text, Init: init,
	}
}

func (p *Parser) parsePrecision() string {
	t := p.Cur()
	if t.Kind == lex.Keyword && (t.Text == "highp" || t.Text == "mediump" || t.Text == "lowp") {
		p.Next()
		return t.Text
	}
	return ""
}

func (p *Parser) parseLayoutBody() string {
	p.Expect("(")
	depth := 1
	var sb strings.Builder
	for depth > 0 {
		t := p.Cur()
		if t.Kind == lex.EOF {
			p.Errorf(t.Pos, "unterminated layout(...)")
			break
		}
		p.Next()
		if t.Kind == lex.Punct && t.Text == "(" {
			depth++
		}
		if t.Kind == lex.Punct && t.Text == ")" {
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
	for p.Cur().Kind == lex.Punct && p.Cur().Text == "[" {
		// Only treat as array suffix if followed by int literal or ']'.
		nt := p.PeekTok(1)
		if nt.Kind == lex.IntLit {
			p.Next()
			n, _ := strconv.Atoi(nt.Text)
			p.Next()
			p.Expect("]")
			spec.ArrayLen = n
		} else if nt.Kind == lex.Punct && nt.Text == "]" {
			p.Next()
			p.Next()
			spec.ArrayLen = 0
		} else {
			break
		}
	}
	return spec
}

func (p *Parser) parseFuncRest(retTok Token, ret TypeSpec, name Token) Decl {
	p.Expect("(")
	var params []Param
	if !p.Accept(")") {
		for {
			prm, ok := p.parseParam()
			if !ok {
				p.Sync()
				return nil
			}
			if prm.Type.Name != "void" {
				params = append(params, prm)
			}
			if p.Accept(")") {
				break
			}
			p.Expect(",")
		}
	}
	if p.Accept(";") {
		return &FuncDecl{Pos: retTok.Pos, Return: ret, Name: name.Text, Params: params}
	}
	body := p.parseBlock()
	return &FuncDecl{Pos: retTok.Pos, Return: ret, Name: name.Text, Params: params, Body: body}
}

func (p *Parser) parseParam() (Param, bool) {
	var prm Param
	for p.Cur().Kind == lex.Keyword {
		switch p.Cur().Text {
		case "in":
			prm.Qual = QualIn
			p.Next()
			continue
		case "out":
			prm.Qual = QualOut
			p.Next()
			continue
		case "inout":
			prm.Qual = QualInOut
			p.Next()
			continue
		case "const", "highp", "mediump", "lowp":
			p.Next()
			continue
		}
		break
	}
	ty := p.Cur()
	if ty.Kind != lex.TypeName {
		p.Errorf(ty.Pos, "expected parameter type, found %s", ty)
		return prm, false
	}
	p.Next()
	prm.Type = p.parseArraySuffix(Scalar(ty.Text))
	if prm.Type.Name == "void" {
		return prm, true
	}
	nm := p.Cur()
	if nm.Kind != lex.Ident {
		p.Errorf(nm.Pos, "expected parameter name, found %s", nm)
		return prm, false
	}
	p.Next()
	prm.Name = nm.Text
	prm.Type = p.parseArraySuffix(prm.Type)
	return prm, true
}

// --- Statements ---

func (p *Parser) parseBlock() *BlockStmt {
	open := p.Expect("{")
	blk := &BlockStmt{Pos: open.Pos}
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

func (p *Parser) parseStmt() Stmt {
	if !p.Nest() {
		return nil
	}
	defer p.Unnest()
	t := p.Cur()
	switch {
	case t.Kind == lex.Punct && t.Text == "{":
		return p.parseBlock()
	case t.Kind == lex.Punct && t.Text == ";":
		p.Next()
		return nil
	case t.Kind == lex.Keyword:
		switch t.Text {
		case "if":
			return p.parseIf()
		case "for":
			return p.parseFor()
		case "while":
			return p.parseWhile()
		case "return":
			p.Next()
			var res Expr
			if !(p.Cur().Kind == lex.Punct && p.Cur().Text == ";") {
				res = p.parseExpr()
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
		case "const", "highp", "mediump", "lowp":
			return p.parseDeclStmt()
		default:
			p.Errorf(t.Pos, "unexpected keyword %q in statement", t.Text)
			p.Sync()
			return nil
		}
	case t.Kind == lex.TypeName:
		// Type name followed by identifier: declaration. Otherwise it's a
		// constructor expression statement (rare but legal).
		if p.PeekTok(1).Kind == lex.Ident {
			return p.parseDeclStmt()
		}
		return p.parseSimpleStmtSemi()
	default:
		return p.parseSimpleStmtSemi()
	}
}

func (p *Parser) parseDeclStmt() Stmt {
	t := p.Cur()
	isConst := false
	for p.Cur().Kind == lex.Keyword {
		switch p.Cur().Text {
		case "const":
			isConst = true
			p.Next()
			continue
		case "highp", "mediump", "lowp":
			p.Next()
			continue
		}
		break
	}
	ty := p.Cur()
	if ty.Kind != lex.TypeName {
		p.Errorf(ty.Pos, "expected type in declaration, found %s", ty)
		p.Sync()
		return nil
	}
	p.Next()
	spec := p.parseArraySuffix(Scalar(ty.Text))
	nm := p.Cur()
	if nm.Kind != lex.Ident {
		p.Errorf(nm.Pos, "expected name in declaration, found %s", nm)
		p.Sync()
		return nil
	}
	p.Next()
	spec = p.parseArraySuffix(spec)
	var init Expr
	if p.Accept("=") {
		init = p.parseExpr()
	}
	p.Expect(";")
	return &DeclStmt{Pos: t.Pos, Const: isConst, Type: spec, Name: nm.Text, Init: init}
}

// parseSimpleStmt parses an assignment, inc/dec, or expression statement,
// without consuming a trailing semicolon.
func (p *Parser) parseSimpleStmt() Stmt {
	t := p.Cur()
	lhs := p.parseExpr()
	cur := p.Cur()
	if cur.Kind == lex.Punct {
		switch cur.Text {
		case "=", "+=", "-=", "*=", "/=":
			p.Next()
			rhs := p.parseExpr()
			return &AssignStmt{Pos: t.Pos, LHS: lhs, Op: cur.Text, RHS: rhs}
		case "++":
			p.Next()
			return &AssignStmt{Pos: t.Pos, LHS: lhs, Op: "+=", RHS: &IntLitExpr{Pos: cur.Pos, Value: 1}}
		case "--":
			p.Next()
			return &AssignStmt{Pos: t.Pos, LHS: lhs, Op: "-=", RHS: &IntLitExpr{Pos: cur.Pos, Value: 1}}
		}
	}
	return &ExprStmt{Pos: t.Pos, X: lhs}
}

func (p *Parser) parseSimpleStmtSemi() Stmt {
	s := p.parseSimpleStmt()
	p.Expect(";")
	return s
}

func (p *Parser) parseIf() Stmt {
	t := p.Expect("if")
	p.Expect("(")
	cond := p.parseExpr()
	p.Expect(")")
	then := p.parseBranchBody()
	var els Stmt
	if p.Accept("else") {
		if p.Cur().Kind == lex.Keyword && p.Cur().Text == "if" {
			els = p.parseStmt() // through parseStmt, so an else-if chain nests
		} else {
			els = p.parseBranchBody()
		}
	}
	return &IfStmt{Pos: t.Pos, Cond: cond, Then: then, Else: els}
}

// parseBranchBody parses either a block or a single statement wrapped into
// a block, so downstream code only ever sees blocks.
func (p *Parser) parseBranchBody() *BlockStmt {
	if p.Cur().Kind == lex.Punct && p.Cur().Text == "{" {
		return p.parseBlock()
	}
	s := p.parseStmt()
	blk := &BlockStmt{Pos: p.Cur().Pos}
	if s != nil {
		blk.Stmts = append(blk.Stmts, s)
	}
	return blk
}

func (p *Parser) parseFor() Stmt {
	t := p.Expect("for")
	p.Expect("(")
	var init Stmt
	if !(p.Cur().Kind == lex.Punct && p.Cur().Text == ";") {
		if p.Cur().Kind == lex.TypeName || (p.Cur().Kind == lex.Keyword && p.Cur().Text == "const") {
			init = p.parseDeclStmt() // consumes ';'
		} else {
			init = p.parseSimpleStmtSemi()
		}
	} else {
		p.Next()
	}
	var cond Expr
	if !(p.Cur().Kind == lex.Punct && p.Cur().Text == ";") {
		cond = p.parseExpr()
	}
	p.Expect(";")
	var post Stmt
	if !(p.Cur().Kind == lex.Punct && p.Cur().Text == ")") {
		post = p.parseSimpleStmt()
	}
	p.Expect(")")
	body := p.parseBranchBody()
	return &ForStmt{Pos: t.Pos, Init: init, Cond: cond, Post: post, Body: body}
}

func (p *Parser) parseWhile() Stmt {
	t := p.Expect("while")
	p.Expect("(")
	cond := p.parseExpr()
	p.Expect(")")
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

// parseExpr parses an expression, the ternary ?: its loosest operator.
func (p *Parser) parseExpr() Expr {
	if !p.Nest() {
		return &IntLitExpr{Pos: p.Cur().Pos}
	}
	defer p.Unnest()
	cond := p.parseBinary(1)
	if p.Cur().Kind == lex.Punct && p.Cur().Text == "?" {
		q := p.Next()
		thn := p.parseExpr()
		p.Expect(":")
		els := p.parseExpr()
		return &CondExpr{Pos: q.Pos, Cond: cond, Then: thn, Else: els}
	}
	return cond
}

func (p *Parser) parseBinary(minPrec int) Expr {
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
		lhs = &BinaryExpr{Pos: t.Pos, Op: t.Text, X: lhs, Y: rhs}
	}
}

func (p *Parser) parseUnary() Expr {
	t := p.Cur()
	if t.Kind == lex.Punct {
		switch t.Text {
		case "-", "!":
			p.Next()
			return &UnaryExpr{Pos: t.Pos, Op: t.Text, X: p.operand()}
		case "+":
			p.Next()
			return p.operand()
		case "++", "--":
			// Pre-increment used as expression is outside the subset; parse
			// operand and report.
			p.Errorf(t.Pos, "prefix %q not supported as expression", t.Text)
			p.Next()
			return p.operand()
		}
	}
	return p.parsePostfix()
}

// operand parses a unary operator's operand, one nesting level deeper.
func (p *Parser) operand() Expr {
	if !p.Nest() {
		return &IntLitExpr{Pos: p.Cur().Pos}
	}
	defer p.Unnest()
	return p.parseUnary()
}

func (p *Parser) parsePostfix() Expr {
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
			x = &IndexExpr{Pos: t.Pos, X: x, Index: idx}
		case ".":
			p.Next()
			nm := p.Cur()
			if nm.Kind != lex.Ident && nm.Kind != lex.Keyword {
				p.Errorf(nm.Pos, "expected field name after '.', found %s", nm)
				return x
			}
			p.Next()
			x = &FieldExpr{Pos: t.Pos, X: x, Name: nm.Text}
		default:
			return x
		}
	}
}

func (p *Parser) parsePrimary() Expr {
	t := p.Cur()
	switch t.Kind {
	case lex.IntLit:
		p.Next()
		text := strings.TrimRight(t.Text, "uU")
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
		return &IntLitExpr{Pos: t.Pos, Value: v}
	case lex.FloatLit:
		p.Next()
		text := strings.TrimRight(t.Text, "fFlL")
		v, err := strconv.ParseFloat(text, 64)
		if err != nil {
			p.Errorf(t.Pos, "bad float literal %q", t.Text)
		}
		return &FloatLitExpr{Pos: t.Pos, Value: v}
	case lex.BoolLit:
		p.Next()
		return &BoolLitExpr{Pos: t.Pos, Value: t.Text == "true"}
	case lex.Ident:
		p.Next()
		if p.Cur().Kind == lex.Punct && p.Cur().Text == "(" {
			return p.parseCallArgs(t.Pos, t.Text)
		}
		return &IdentExpr{Pos: t.Pos, Name: t.Text}
	case lex.TypeName:
		p.Next()
		// Array constructor: vec2[3](...) or vec2[](...).
		if p.Cur().Kind == lex.Punct && p.Cur().Text == "[" {
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
	return &IntLitExpr{Pos: t.Pos, Value: 0}
}

func (p *Parser) parseCallArgs(pos lex.Pos, callee string) Expr {
	p.Expect("(")
	call := &CallExpr{Pos: pos, Callee: callee}
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

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
