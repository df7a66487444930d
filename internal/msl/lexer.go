package msl

import "fmt"

// Lexer tokenizes MSL source. Preprocessor directives (#include lines)
// are skipped whole: the emitted dialect only uses them for the standard
// headers, which the frontend models directly.
type Lexer struct {
	src  string
	pos  int
	line int
	col  int
	err  error
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Err returns the first lexing error.
func (lx *Lexer) Err() error { return lx.err }

func (lx *Lexer) errorf(p Pos, format string, args ...any) {
	if lx.err == nil {
		lx.err = fmt.Errorf("msl: %s: %s", p, fmt.Sprintf(format, args...))
	}
}

func (lx *Lexer) peek() byte {
	if lx.pos >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos]
}

func (lx *Lexer) peekAt(n int) byte {
	if lx.pos+n >= len(lx.src) {
		return 0
	}
	return lx.src[lx.pos+n]
}

func (lx *Lexer) advance() byte {
	c := lx.src[lx.pos]
	lx.pos++
	if c == '\n' {
		lx.line++
		lx.col = 1
	} else {
		lx.col++
	}
	return c
}

func (lx *Lexer) here() Pos { return Pos{Line: lx.line, Col: lx.col} }

// Next returns the next token.
func (lx *Lexer) Next() Token {
	for lx.pos < len(lx.src) {
		c := lx.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			lx.advance()
		case c == '#':
			// Preprocessor directive: skip to end of line.
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekAt(1) == '/':
			for lx.pos < len(lx.src) && lx.peek() != '\n' {
				lx.advance()
			}
		case c == '/' && lx.peekAt(1) == '*':
			p := lx.here()
			lx.advance()
			lx.advance()
			closed := false
			for lx.pos < len(lx.src) {
				if lx.peek() == '*' && lx.peekAt(1) == '/' {
					lx.advance()
					lx.advance()
					closed = true
					break
				}
				lx.advance()
			}
			if !closed {
				lx.errorf(p, "unterminated block comment")
				return Token{Kind: EOF, Pos: lx.here()}
			}
		default:
			goto tokens
		}
	}
	return Token{Kind: EOF, Pos: lx.here()}

tokens:
	p := lx.here()
	c := lx.peek()
	switch {
	case isDigit(c) || (c == '.' && isDigit(lx.peekAt(1))):
		return lx.lexNumber(p)
	case isIdentStart(c):
		start := lx.pos
		for lx.pos < len(lx.src) && isIdentByte(lx.peek()) {
			lx.advance()
		}
		text := lx.src[start:lx.pos]
		switch {
		case text == "true" || text == "false":
			return Token{Kind: BoolLit, Text: text, Pos: p}
		case IsKeyword(text):
			return Token{Kind: Keyword, Text: text, Pos: p}
		}
		return Token{Kind: Ident, Text: text, Pos: p}
	}

	// Multi-character operators, longest first.
	for _, op := range []string{"<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "++", "--", "::"} {
		if lx.hasPrefix(op) {
			for range op {
				lx.advance()
			}
			return Token{Kind: Punct, Text: op, Pos: p}
		}
	}
	if isPunct(c) {
		lx.advance()
		return Token{Kind: Punct, Text: string(c), Pos: p}
	}
	lx.errorf(p, "unexpected character %q", string(c))
	lx.advance()
	return Token{Kind: EOF, Pos: p}
}

func (lx *Lexer) hasPrefix(s string) bool {
	return lx.pos+len(s) <= len(lx.src) && lx.src[lx.pos:lx.pos+len(s)] == s
}

func (lx *Lexer) lexNumber(p Pos) Token {
	start := lx.pos
	isFloat := false
	if lx.peek() == '0' && (lx.peekAt(1) == 'x' || lx.peekAt(1) == 'X') {
		lx.advance()
		lx.advance()
		for lx.pos < len(lx.src) && isHexDigit(lx.peek()) {
			lx.advance()
		}
	} else {
		for lx.pos < len(lx.src) && isDigit(lx.peek()) {
			lx.advance()
		}
		if lx.peek() == '.' {
			isFloat = true
			lx.advance()
			for lx.pos < len(lx.src) && isDigit(lx.peek()) {
				lx.advance()
			}
		}
		if lx.peek() == 'e' || lx.peek() == 'E' {
			next := lx.peekAt(1)
			if isDigit(next) || ((next == '+' || next == '-') && isDigit(lx.peekAt(2))) {
				isFloat = true
				lx.advance()
				if lx.peek() == '+' || lx.peek() == '-' {
					lx.advance()
				}
				for lx.pos < len(lx.src) && isDigit(lx.peek()) {
					lx.advance()
				}
			}
		}
	}
	text := lx.src[start:lx.pos]
	// Suffixes: f/F/h/H mark floats, u/U ints; drop them from the text.
	switch lx.peek() {
	case 'f', 'F', 'h', 'H':
		isFloat = true
		lx.advance()
	case 'u', 'U', 'l', 'L':
		lx.advance()
	}
	if isFloat {
		return Token{Kind: FloatLit, Text: text, Pos: p}
	}
	return Token{Kind: IntLit, Text: text, Pos: p}
}

// maxPresizedTokens caps the token slice LexAll reserves from the source
// length, so a long source that is mostly comments or whitespace reserves
// at most this many tokens up front; a longer token stream grows the
// slice by append. The largest corpus text, an emitted MSL of about 17500
// tokens, fits under it.
const maxPresizedTokens = 1 << 15

// LexAll tokenizes the whole source.
func LexAll(src string) ([]Token, error) {
	lx := NewLexer(src)
	// Presized from the source length, with room for EOF: emitted MSL
	// of the corpus runs 3.9 to 4.9 bytes per token, so this never
	// regrows on it.
	toks := make([]Token, 0, min(len(src)/3+1, maxPresizedTokens))
	for {
		t := lx.Next()
		toks = append(toks, t)
		if t.Kind == EOF {
			break
		}
	}
	return toks, lx.Err()
}

func isDigit(c byte) bool    { return c >= '0' && c <= '9' }
func isHexDigit(c byte) bool { return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') }
func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isIdentByte(c byte) bool { return isIdentStart(c) || isDigit(c) }
func isPunct(c byte) bool {
	switch c {
	case '+', '-', '*', '/', '%', '<', '>', '=', '!', '&', '|', '^', '~', '?', ':', ';', ',', '.', '(', ')', '{', '}', '[', ']':
		return true
	}
	return false
}
