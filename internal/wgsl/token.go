// Package wgsl implements the WGSL (WebGPU Shading Language) frontend: a
// lexer, recursive-descent parser, WGSL AST, and a semantic
// binding/lowering stage that targets the optimizer IR shared with the
// GLSL frontend. The supported subset mirrors the GLSL subset used by the
// study corpus: @fragment entry points with @location/@builtin parameters,
// let/var declarations with type inference, vecN<f32>-family types,
// structured control flow (if/else, for, while), swizzles, constructors,
// array types, texture_2d/sampler pairs, and the builtin function library
// the interpreter evaluates.
//
// Architecturally the frontend is modeled on naga's wgsl package: a
// separate surface language lowered into one shared program form so the
// flag-controlled passes, the measurement harness, and the GPU cost models
// stay frontend-independent.
package wgsl

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
	Punct
	Comment // only produced when lexer keeps comments
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
	case Punct:
		return "punctuation"
	case Comment:
		return "comment"
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

// Token is a single lexical token.
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

// keywords is the set of reserved words in the supported subset. Type
// names (f32, vec4, texture_2d, ...) are ordinary identifiers in WGSL's
// grammar — the parser resolves them contextually — so they are not
// listed here.
var keywords = map[string]bool{
	"fn": true, "let": true, "var": true, "const": true, "override": true,
	"if": true, "else": true, "for": true, "while": true, "loop": true,
	"return": true, "discard": true, "break": true, "continue": true,
	"continuing": true, "switch": true, "case": true, "default": true,
	"struct": true, "alias": true, "enable": true, "requires": true,
	"diagnostic": true, "const_assert": true,
}

// IsKeyword reports whether s is a reserved word.
func IsKeyword(s string) bool { return keywords[s] }
