package lex

import "fmt"

// Cursor is a recursive-descent parser's place in a token stream that
// excludes EOF: reading past the end yields an EOF token. Parsers embed
// it and collect their errors in Errs.
type Cursor struct {
	Toks []Token
	At   int // index of the current token
	Errs []error
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
