package lex

import "fmt"

// MaxDepth bounds how deeply a parser recurses. Nested parentheses,
// calls, indexes and conditional arms, chains of unary operators, nested
// statements and blocks, else-if chains and nested template types each
// take one level. The corpus nests at most 7 levels deep (its sources,
// the GLSL the drivers re-parse and the MSL the backend emits), so no
// real shader comes near the bound; a source past it gets a line:col
// error instead of a stack that grows until the process dies. The
// checkers, the lowering and the printers recurse on the trees the
// parsers build, so they inherit the bound. The scanner counts bracket
// depth against the same bound, so a source nested past it stops lexing
// at the first bracket too deep, before its token stream is built.
// Left-deep operator chains (a+a+...+a) and unbracketed unary chains
// (- - ... - a) are lexed in full; the parsers bound the latter.
const MaxDepth = 256

// Cursor is a recursive-descent parser's place in a token stream. A
// stream may or may not end in its own EOF token: reading past the end
// yields one. Parsers embed it and collect their errors in Errs.
type Cursor struct {
	Toks  []Token
	At    int // index of the current token
	Errs  []error
	depth int // recursion levels entered by Nest and not yet left
}

// Cur returns the current token.
func (c *Cursor) Cur() Token { return c.PeekTok(0) }

// PeekTok returns the token off places past the current one.
func (c *Cursor) PeekTok(off int) Token {
	if c.At+off >= len(c.Toks) {
		return Token{Kind: EOF}
	}
	return c.Toks[c.At+off]
}

// Next consumes and returns the current token.
func (c *Cursor) Next() Token {
	t := c.Cur()
	if c.At < len(c.Toks) {
		c.At++
	}
	return t
}

// Errorf records a parse error at pos.
func (c *Cursor) Errorf(pos Pos, format string, args ...any) {
	c.Errs = append(c.Errs, fmt.Errorf("%s: %s", pos, fmt.Sprintf(format, args...)))
}

// Accept consumes the current token if it is punctuation or a keyword
// spelled text, reporting whether it did.
func (c *Cursor) Accept(text string) bool {
	t := c.Cur()
	if (t.Kind == Punct || t.Kind == Keyword) && t.Text == text {
		c.Next()
		return true
	}
	return false
}

// Expect consumes the current token if it is punctuation or a keyword
// spelled text; otherwise it records an error and leaves it in place.
func (c *Cursor) Expect(text string) Token {
	t := c.Cur()
	if (t.Kind == Punct || t.Kind == Keyword) && t.Text == text {
		return c.Next()
	}
	c.Errorf(t.Pos, "expected %q, found %s", text, t)
	return t
}

// Nest enters one level of parser recursion at the current token and
// reports whether the parser may descend. Past MaxDepth it records an
// error, skips to the end of the stream so the parser unwinds without
// reading further, and reports false. Every Nest that reports true is
// paired with one Unnest.
func (c *Cursor) Nest() bool {
	if c.depth == MaxDepth {
		c.Errorf(c.Cur().Pos, "nesting deeper than %d levels", MaxDepth)
		c.At = len(c.Toks)
		return false
	}
	c.depth++
	return true
}

// Unnest leaves the level the last Nest entered.
func (c *Cursor) Unnest() { c.depth-- }

// Sync skips tokens until after the next semicolon or closing brace, to
// recover from a parse error.
func (c *Cursor) Sync() {
	for {
		t := c.Cur()
		if t.Kind == EOF {
			return
		}
		c.Next()
		if t.Kind == Punct && (t.Text == ";" || t.Text == "}") {
			return
		}
	}
}
