package wgsl

import (
	"fmt"
	"strings"
)

// Lexer tokenizes WGSL source text. WGSL has no preprocessor; comments
// (// and nestable /* */) are skipped unless KeepComments is set.
type Lexer struct {
	src  string
	pos  int
	line int32
	col  int32

	// KeepComments causes comments to be emitted as Comment tokens.
	KeepComments bool

	err error
}

// NewLexer returns a lexer over src.
func NewLexer(src string) *Lexer {
	return &Lexer{src: src, line: 1, col: 1}
}

// Err returns the first error encountered while lexing, if any.
func (l *Lexer) Err() error { return l.err }

func (l *Lexer) errorf(p Pos, format string, args ...any) {
	if l.err == nil {
		l.err = fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...))
	}
}

func (l *Lexer) peek() byte {
	if l.pos >= len(l.src) {
		return 0
	}
	return l.src[l.pos]
}

func (l *Lexer) peekAt(off int) byte {
	if l.pos+off >= len(l.src) {
		return 0
	}
	return l.src[l.pos+off]
}

func (l *Lexer) advance() byte {
	c := l.src[l.pos]
	l.pos++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func isSpace(c byte) bool  { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }
func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isAlpha(c byte) bool  { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }
func isAlnum(c byte) bool  { return isAlpha(c) || isDigit(c) }
func isHexDig(c byte) bool { return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') }

// Next returns the next token.
func (l *Lexer) Next() Token {
	for {
		for l.pos < len(l.src) && isSpace(l.peek()) {
			l.advance()
		}
		if l.pos >= len(l.src) {
			return Token{Kind: EOF, Pos: Pos{l.line, l.col}}
		}
		start := Pos{l.line, l.col}
		c := l.peek()

		// Line comments.
		if c == '/' && l.peekAt(1) == '/' {
			begin := l.pos
			for l.pos < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
			if l.KeepComments {
				return Token{Kind: Comment, Text: l.src[begin:l.pos], Pos: start}
			}
			continue
		}
		// Block comments nest in WGSL (unlike GLSL).
		if c == '/' && l.peekAt(1) == '*' {
			begin := l.pos
			l.advance()
			l.advance()
			depth := 1
			for l.pos < len(l.src) && depth > 0 {
				switch {
				case l.peek() == '/' && l.peekAt(1) == '*':
					depth++
					l.advance()
					l.advance()
				case l.peek() == '*' && l.peekAt(1) == '/':
					depth--
					l.advance()
					l.advance()
				default:
					l.advance()
				}
			}
			if depth > 0 {
				l.errorf(start, "unterminated block comment")
			}
			if l.KeepComments {
				return Token{Kind: Comment, Text: l.src[begin:l.pos], Pos: start}
			}
			continue
		}

		// Numbers.
		if isDigit(c) || (c == '.' && isDigit(l.peekAt(1))) {
			return l.lexNumber(start)
		}

		// Identifiers and keywords.
		if isAlpha(c) {
			begin := l.pos
			for l.pos < len(l.src) && isAlnum(l.peek()) {
				l.advance()
			}
			word := l.src[begin:l.pos]
			switch {
			case word == "true" || word == "false":
				return Token{Kind: BoolLit, Text: word, Pos: start}
			case IsKeyword(word):
				return Token{Kind: Keyword, Text: word, Pos: start}
			default:
				return Token{Kind: Ident, Text: word, Pos: start}
			}
		}

		// Operators and punctuation, longest match first.
		for _, op := range multiCharOps {
			if strings.HasPrefix(l.src[l.pos:], op) {
				for range op {
					l.advance()
				}
				return Token{Kind: Punct, Text: op, Pos: start}
			}
		}
		if strings.IndexByte("+-*/%<>=!&|^~?:;,.(){}[]@", c) >= 0 {
			l.advance()
			return Token{Kind: Punct, Text: string(c), Pos: start}
		}

		l.errorf(start, "unexpected character %q", string(c))
		l.advance()
	}
}

// multiCharOps are matched before single-char operators; longer ops come
// first within a shared prefix. "->" is WGSL's return-type arrow. The
// lexer deliberately does not combine ">>" — template closers like
// vec2<vec2<f32>> never appear in the subset, and shifts are out of scope.
var multiCharOps = []string{
	"<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "->",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
	"++", "--", "<<", ">>",
}

// lexNumber scans a WGSL numeric literal. WGSL suffixes: f/h make a float,
// i/u make an integer; an unsuffixed token with '.' or exponent is a
// float. A decimal integer with an f/h suffix (e.g. "2f") is a float.
func (l *Lexer) lexNumber(start Pos) Token {
	begin := l.pos
	isFloat := false

	// Hex literal.
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advance()
		l.advance()
		for l.pos < len(l.src) && isHexDig(l.peek()) {
			l.advance()
		}
		if l.peek() == 'i' || l.peek() == 'u' {
			l.advance()
		}
		return Token{Kind: IntLit, Text: l.src[begin:l.pos], Pos: start}
	}

	for l.pos < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' && l.peekAt(1) != '.' && !isAlpha(l.peekAt(1)) {
		isFloat = true
		l.advance()
		for l.pos < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		off := 1
		if l.peekAt(off) == '+' || l.peekAt(off) == '-' {
			off++
		}
		if isDigit(l.peekAt(off)) {
			isFloat = true
			l.advance()
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			for l.pos < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
	}
	switch l.peek() {
	case 'f', 'h':
		isFloat = true
		l.advance()
	case 'i', 'u':
		if isFloat {
			l.errorf(start, "integer suffix on float literal")
		}
		l.advance()
	}
	text := l.src[begin:l.pos]
	if isFloat {
		return Token{Kind: FloatLit, Text: text, Pos: start}
	}
	return Token{Kind: IntLit, Text: text, Pos: start}
}

// maxPresizedTokens caps the token slice LexAll reserves from the source
// length, so a long source that is mostly comments or whitespace reserves
// at most this many tokens up front; a longer token stream grows the
// slice by append. A token is 32 bytes (Pos holds int32s), so the cap
// reserves at most 1 MB. The largest corpus text, an emitted MSL of
// about 17500 tokens, fits under it.
const maxPresizedTokens = 1 << 15

// LexAll tokenizes the whole input, returning tokens up to and excluding
// EOF.
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	// Presized from the source length. Corpus sources run 2.7 to 2.9
	// bytes per token, so two fifths of the length never regrows on the
	// corpus.
	toks := make([]Token, 0, min(len(src)*2/5, maxPresizedTokens))
	for {
		t := l.Next()
		if t.Kind == EOF {
			break
		}
		toks = append(toks, t)
	}
	return toks, l.Err()
}
