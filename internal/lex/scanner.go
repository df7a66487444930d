package lex

import (
	"fmt"
	"strings"
	"sync"
)

// maxPresizedTokens caps the token slice a Scanner reserves from the
// source length, so a long source that is mostly comments or whitespace
// reserves at most this many tokens up front; a longer token stream
// grows the slice by append. A token is 32 bytes (Pos holds int32s), so
// the cap reserves at most 1 MB. The largest corpus text, an emitted MSL
// of about 17500 tokens, fits under it.
const maxPresizedTokens = 1 << 15

// punct is the single-byte punctuation every language shares. A
// language's other single-byte operators (WGSL's '@') go in its operator
// table.
const punct = "+-*/%<>=!&|^~?:;,.(){}[]"

// Scanner walks a source text byte by byte, tracking line and column,
// and appends the tokens its steps scan. A frontend's LexAll drives it:
//
//	s := lex.NewScanner(src, presize)
//	for s.Skip(nest) {
//		// dispatch on s.Peek() to one step that emits one token
//	}
//	return s.Tokens(), s.Err()
//
// Lexing ends at the first error: Skip reports no more tokens once one
// is recorded. An opening bracket past MaxDepth is such an error, so a
// source of a million nested parentheses stops lexing at the first one
// past the bound instead of materializing its whole token stream; so is
// a run of unary operators longer than any parser accepts.
type Scanner struct {
	src       string
	off       int // offset of the next byte
	line, col int32
	start     int // offset of the current token
	pos       Pos // position of the current token
	toks      []Token
	err       error
	depth     int // brackets opened and not yet closed, at most MaxDepth
	unary     int // length of the run of unary operators ending at unaryEnd
	unaryEnd  int // token count just after the run's last operator
}

// NewScanner returns a scanner over src whose token slice reserves
// presize tokens, capped at maxPresizedTokens.
func NewScanner(src string, presize int) Scanner {
	return Scanner{src: src, line: 1, col: 1, toks: make([]Token, 0, min(presize, maxPresizedTokens))}
}

// tokenBufs holds the token slices parsers handed back with Recycle.
var tokenBufs sync.Pool

// NewRecycledScanner is NewScanner for a parser that drops its tokens
// when it returns: it scans into a slice an earlier parse handed back
// with Recycle when the pool has one with room for presize tokens
// (capped as NewScanner caps it), and reserves a fresh one otherwise.
func NewRecycledScanner(src string, presize int) Scanner {
	if b, _ := tokenBufs.Get().(*[]Token); b != nil && cap(*b) >= min(presize, maxPresizedTokens) {
		return Scanner{src: src, line: 1, col: 1, toks: (*b)[:0]}
	}
	return NewScanner(src, presize)
}

// Recycle hands back the tokens of a scanner made by NewRecycledScanner
// for a later parse to scan into. The caller must keep no reference to
// toks. The tokens are cleared first, so the pool pins no source text.
func Recycle(toks []Token) {
	clear(toks)
	toks = toks[:0]
	tokenBufs.Put(&toks)
}

// Tokens returns the tokens scanned so far.
func (s *Scanner) Tokens() []Token { return s.toks }

// Err returns the first error, labeled with its position.
func (s *Scanner) Err() error { return s.err }

// Errorf records an error at the current token's start, unless one is
// already recorded.
func (s *Scanner) Errorf(format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("%s: %s", s.pos, fmt.Sprintf(format, args...))
	}
}

// More reports whether any bytes remain.
func (s *Scanner) More() bool { return s.off < len(s.src) }

// Peek returns the next byte, or 0 at the end of the source.
func (s *Scanner) Peek() byte { return s.PeekAt(0) }

// PeekAt returns the byte n past the next one, or 0 past the end.
func (s *Scanner) PeekAt(n int) byte {
	if s.off+n >= len(s.src) {
		return 0
	}
	return s.src[s.off+n]
}

// Advance consumes one byte.
func (s *Scanner) Advance() {
	if s.src[s.off] == '\n' {
		s.line++
		s.col = 1
	} else {
		s.col++
	}
	s.off++
}

// skipLineBytes consumes n bytes that hold no newline.
func (s *Scanner) skipLineBytes(n int) {
	s.off += n
	s.col += int32(n)
}

// Accept consumes the next byte if it is one of set, reporting whether
// it did.
func (s *Scanner) Accept(set string) bool {
	if s.off < len(s.src) && strings.IndexByte(set, s.src[s.off]) >= 0 {
		s.skipLineBytes(1)
		return true
	}
	return false
}

// Emit appends a token of kind k spanning the current token's start to
// the next byte.
func (s *Scanner) Emit(k Kind) {
	s.toks = append(s.toks, Token{Kind: k, Text: s.src[s.start:s.off], Pos: s.pos})
}

// mark starts the current token at the next byte.
func (s *Scanner) mark() {
	s.start = s.off
	s.pos = Pos{s.line, s.col}
}

// Skip skips whitespace and comments: // to the end of the line, and
// /* */ blocks, which nest when nest is set (WGSL). It starts the next
// token where it stops and reports whether one remains: false at the end
// of the source or once an error is recorded.
func (s *Scanner) Skip(nest bool) bool {
	for s.err == nil && s.off < len(s.src) {
		switch c := s.src[s.off]; {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			s.Advance()
		case c == '/' && s.PeekAt(1) == '/':
			s.SkipLine()
		case c == '/' && s.PeekAt(1) == '*':
			s.blockComment(nest)
		default:
			s.mark()
			return true
		}
	}
	s.mark()
	return false
}

// SkipLine consumes bytes up to, not including, the next newline.
func (s *Scanner) SkipLine() {
	n := strings.IndexByte(s.src[s.off:], '\n')
	if n < 0 {
		n = len(s.src) - s.off
	}
	s.skipLineBytes(n)
}

// blockComment consumes a /* */ comment, counting nested openers when
// nest is set.
func (s *Scanner) blockComment(nest bool) {
	s.mark()
	s.skipLineBytes(2)
	for depth := 1; s.off < len(s.src); {
		switch {
		case nest && s.src[s.off] == '/' && s.PeekAt(1) == '*':
			depth++
			s.skipLineBytes(2)
		case s.src[s.off] == '*' && s.PeekAt(1) == '/':
			s.skipLineBytes(2)
			if depth--; depth == 0 {
				return
			}
		default:
			s.Advance()
		}
	}
	s.Errorf("unterminated block comment")
}

// AtLineStart reports whether only blanks precede the current token on
// its line.
func (s *Scanner) AtLineStart() bool {
	for i := s.start - 1; i >= 0; i-- {
		switch s.src[i] {
		case '\n':
			return true
		case ' ', '\t', '\r':
		default:
			return false
		}
	}
	return true
}

// IsWordStart reports whether c can begin an identifier or keyword.
func IsWordStart(c byte) bool { return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isHexDig(c byte) bool { return isDigit(c) || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F') }

// Word scans an identifier or reserved word and emits it with its kind
// in words, or as an Ident if words does not list it.
func (s *Scanner) Word(words map[string]Kind) {
	n := s.off
	for n < len(s.src) && (IsWordStart(s.src[n]) || isDigit(s.src[n])) {
		n++
	}
	s.skipLineBytes(n - s.off)
	k, ok := words[s.src[s.start:s.off]]
	if !ok {
		k = Ident
	}
	s.Emit(k)
}

// Op scans an operator and emits it as Punct: the first of ops (listed
// longest first within a shared prefix) that starts here, else one byte
// of the shared punctuation set. Any other byte is an error, which ends
// lexing, and so is an opening bracket nested past MaxDepth or a run of
// consecutive unary-capable operators (+ - ! ++ --) longer than
// MaxDepth+1. Each prefix operator takes a parser level below its
// expression's own, and at most a postfix and a binary operator lead a
// run (x++ + -y), so no source a parser accepts has a longer run.
func (s *Scanner) Op(ops []string) {
	rest := s.src[s.off:]
	n := 0
	for _, op := range ops {
		if strings.HasPrefix(rest, op) {
			n = len(op)
			break
		}
	}
	if n == 0 {
		switch c := rest[0]; {
		case strings.IndexByte(punct, c) < 0:
			s.Errorf("unexpected character %q", string(c))
			return
		case c == '(' || c == '[' || c == '{':
			if s.depth == MaxDepth {
				s.Errorf("nesting deeper than %d levels", MaxDepth)
				return
			}
			s.depth++
		case (c == ')' || c == ']' || c == '}') && s.depth > 0:
			s.depth--
		}
		n = 1
	}
	switch rest[:n] {
	case "+", "-", "!", "++", "--":
		if len(s.toks) != s.unaryEnd {
			s.unary = 0
		}
		if s.unary == MaxDepth+1 {
			s.Errorf("nesting deeper than %d levels", MaxDepth)
			return
		}
		s.unary++
		s.unaryEnd = len(s.toks) + 1
	}
	s.skipLineBytes(n)
	s.Emit(Punct)
}

// AtNumber reports whether a numeric literal starts here: a digit, or a
// '.' before a digit.
func (s *Scanner) AtNumber() bool {
	c := s.Peek()
	return isDigit(c) || (c == '.' && isDigit(s.PeekAt(1)))
}

// Digits consumes a run of decimal digits.
func (s *Scanner) Digits() {
	n := s.off
	for n < len(s.src) && isDigit(s.src[n]) {
		n++
	}
	s.skipLineBytes(n - s.off)
}

// Hex consumes a 0x or 0X prefix and the hex digits after it, reporting
// whether the literal is hex.
func (s *Scanner) Hex() bool {
	if s.Peek() != '0' || (s.PeekAt(1) != 'x' && s.PeekAt(1) != 'X') {
		return false
	}
	n := s.off + 2
	for n < len(s.src) && isHexDig(s.src[n]) {
		n++
	}
	s.skipLineBytes(n - s.off)
	return true
}

// Exponent consumes an e or E, an optional sign and digits, if digits
// follow, reporting whether it did.
func (s *Scanner) Exponent() bool {
	if c := s.Peek(); c != 'e' && c != 'E' {
		return false
	}
	n := 1
	if c := s.PeekAt(n); c == '+' || c == '-' {
		n++
	}
	if !isDigit(s.PeekAt(n)) {
		return false
	}
	s.skipLineBytes(n)
	s.Digits()
	return true
}

// Decimal consumes digits, then a '.' and the fraction digits after it,
// then an exponent, reporting whether a '.' or an exponent made the
// literal a float.
func (s *Scanner) Decimal() bool {
	s.Digits()
	float := s.Accept(".")
	if float {
		s.Digits()
	}
	return s.Exponent() || float
}
