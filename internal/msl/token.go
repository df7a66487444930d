package msl

import "fmt"

// Kind classifies a token.
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
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Pos is a source position. Positions only label diagnostics, so int32
// fields keep a Token at 32 bytes.
type Pos struct {
	Line, Col int32
}

func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is one lexical token.
type Token struct {
	Kind Kind
	Text string
	Pos  Pos
}

// keywords is the MSL keyword subset the parser dispatches on. Type names
// (float3, texture2d, ...) are contextual identifiers, as in the HLSL
// frontend; address-space and function qualifiers are keywords.
var keywords = map[string]bool{
	"struct": true, "return": true, "if": true, "else": true, "for": true,
	"while": true, "do": true, "break": true, "continue": true,
	"const": true, "static": true, "inline": true, "template": true,
	"typename": true, "using": true, "namespace": true,
	"fragment": true, "vertex": true, "kernel": true,
	"constant": true, "device": true, "thread": true, "threadgroup": true,
}

// IsKeyword reports whether s is an MSL keyword in the subset.
func IsKeyword(s string) bool { return keywords[s] }
