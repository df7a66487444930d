package glsl

import (
	"fmt"
	"strings"
)

// Lexer tokenizes GLSL source text. Preprocessor directives are returned as
// single PPLine tokens when KeepDirectives is set (the parser rejects them;
// the pp package consumes them). Comments are skipped unless KeepComments.
type Lexer struct {
	src  string
	pos  int
	line int32
	col  int32

	// KeepDirectives causes '#' lines to be emitted as PPLine tokens
	// instead of raising an error.
	KeepDirectives bool
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

// atLineStart reports whether only whitespace precedes pos on its line.
func (l *Lexer) atLineStart() bool {
	for i := l.pos - 1; i >= 0; i-- {
		c := l.src[i]
		if c == '\n' {
			return true
		}
		if c != ' ' && c != '\t' && c != '\r' {
			return false
		}
	}
	return true
}

// Next returns the next token.
func (l *Lexer) Next() Token {
	for {
		// Skip whitespace.
		for l.pos < len(l.src) && isSpace(l.peek()) {
			l.advance()
		}
		if l.pos >= len(l.src) {
			return Token{Kind: EOF, Pos: Pos{l.line, l.col}}
		}
		start := Pos{l.line, l.col}
		c := l.peek()

		// Comments.
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
		if c == '/' && l.peekAt(1) == '*' {
			begin := l.pos
			l.advance()
			l.advance()
			closed := false
			for l.pos < len(l.src) {
				if l.peek() == '*' && l.peekAt(1) == '/' {
					l.advance()
					l.advance()
					closed = true
					break
				}
				l.advance()
			}
			if !closed {
				l.errorf(start, "unterminated block comment")
			}
			if l.KeepComments {
				return Token{Kind: Comment, Text: l.src[begin:l.pos], Pos: start}
			}
			continue
		}

		// Preprocessor directive: '#' at start of line, consumes the whole
		// logical line (honouring backslash continuations).
		if c == '#' && l.atLineStart() {
			begin := l.pos
			for l.pos < len(l.src) {
				if l.peek() == '\n' {
					// Check for backslash continuation.
					j := l.pos - 1
					for j >= 0 && (l.src[j] == ' ' || l.src[j] == '\t' || l.src[j] == '\r') {
						j--
					}
					if j >= 0 && l.src[j] == '\\' {
						l.advance()
						continue
					}
					break
				}
				l.advance()
			}
			text := l.src[begin:l.pos]
			if !l.KeepDirectives {
				l.errorf(start, "unexpected preprocessor directive %q (run the preprocessor first)", firstLine(text))
			}
			return Token{Kind: PPLine, Text: text, Pos: start}
		}

		// Numbers.
		if isDigit(c) || (c == '.' && isDigit(l.peekAt(1))) {
			return l.lexNumber(start)
		}

		// Identifiers / keywords / type names.
		if isAlpha(c) {
			begin := l.pos
			for l.pos < len(l.src) && isAlnum(l.peek()) {
				l.advance()
			}
			word := l.src[begin:l.pos]
			switch {
			case word == "true" || word == "false":
				return Token{Kind: BoolLit, Text: word, Pos: start}
			case IsTypeName(word):
				return Token{Kind: TypeName, Text: word, Pos: start}
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
		if strings.IndexByte("+-*/%<>=!&|^?:;,.(){}[]~", c) >= 0 {
			l.advance()
			return Token{Kind: Punct, Text: string(c), Pos: start}
		}

		l.errorf(start, "unexpected character %q", string(c))
		l.advance()
	}
}

// multiCharOps are matched before single-char operators; order matters only
// within a shared prefix, so longer ops come first.
var multiCharOps = []string{
	"<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "^^",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
	"++", "--", "<<", ">>",
}

func (l *Lexer) lexNumber(start Pos) Token {
	begin := l.pos
	isFloat := false

	// Hex integer.
	if l.peek() == '0' && (l.peekAt(1) == 'x' || l.peekAt(1) == 'X') {
		l.advance()
		l.advance()
		for l.pos < len(l.src) && isHexDig(l.peek()) {
			l.advance()
		}
		if l.peek() == 'u' || l.peek() == 'U' {
			l.advance()
		}
		return Token{Kind: IntLit, Text: l.src[begin:l.pos], Pos: start}
	}

	for l.pos < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	if l.peek() == '.' {
		isFloat = true
		l.advance()
		for l.pos < len(l.src) && isDigit(l.peek()) {
			l.advance()
		}
	}
	if l.peek() == 'e' || l.peek() == 'E' {
		// Exponent only if followed by digits (or sign then digits).
		off := 1
		if l.peekAt(off) == '+' || l.peekAt(off) == '-' {
			off++
		}
		if isDigit(l.peekAt(off)) {
			isFloat = true
			l.advance() // e
			if l.peek() == '+' || l.peek() == '-' {
				l.advance()
			}
			for l.pos < len(l.src) && isDigit(l.peek()) {
				l.advance()
			}
		}
	}
	// Suffixes.
	switch l.peek() {
	case 'f', 'F':
		isFloat = true
		l.advance()
	case 'u', 'U':
		if !isFloat {
			l.advance()
		}
	case 'l', 'L':
		if l.peekAt(1) == 'f' || l.peekAt(1) == 'F' {
			isFloat = true
			l.advance()
			l.advance()
		}
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

// LexAll tokenizes the whole input, returning tokens up to and excluding EOF.
func LexAll(src string) ([]Token, error) {
	l := NewLexer(src)
	l.KeepDirectives = true
	// Presized from the source length. Corpus sources run 2.9 to 5.0
	// bytes per token and generated texts 3.5 to 4.7, so two fifths of
	// the length never regrows on the corpus.
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

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
