// Package lex is the lexical layer the four source-language frontends
// (internal/glsl, internal/hlsl, internal/wgsl and internal/msl) share:
// the token with its kind and source position, a byte scanner whose
// steps each frontend's LexAll composes, and the token cursor both
// parsers walk (internal/glsl's and the one internal/bind shares among
// HLSL, WGSL and MSL), with the one recursion bound, MaxDepth.
//
// A frontend contributes only data and a few lines of rules: its word
// table (keywords, and for GLSL its type names), its operator table, its
// literal-suffix rule and its directive rule. The scanner owns
// everything the languages have in common: position tracking, skipping
// whitespace and comments, words, longest-first operators with the
// shared punctuation set, digit, hex and exponent runs, and the
// presized token slice.
package lex

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds.
const (
	EOF Kind = iota
	Ident
	IntLit
	FloatLit
	BoolLit
	Keyword
	TypeName // a GLSL builtin type name; the other languages resolve types in the parser
	Punct    // single or multi char punctuation/operator
	PPLine   // a raw GLSL preprocessor line
)

func (k Kind) String() string {
	switch k {
	case EOF:
		return "EOF"
	case Ident:
		return "identifier"
	case IntLit:
		return "int literal"
	case FloatLit:
		return "float literal"
	case BoolLit:
		return "bool literal"
	case Keyword:
		return "keyword"
	case TypeName:
		return "type name"
	case Punct:
		return "punctuation"
	case PPLine:
		return "preprocessor line"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Pos is a line/column source position (1-based). Positions only label
// diagnostics, so int32 fields keep a Token at 32 bytes.
type Pos struct {
	Line int32
	Col  int32
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexical token. Its Text is a slice of the source.
type Token struct {
	Kind Kind
	Text string
	Pos  Pos
}

func (t Token) String() string {
	if t.Kind == EOF {
		return "EOF"
	}
	return fmt.Sprintf("%s %q", t.Kind, t.Text)
}
