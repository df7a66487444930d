// Package hlsl implements the HLSL (High-Level Shading Language)
// frontend: a lexer, recursive-descent parser, HLSL AST, and a semantic
// binding/lowering stage that targets the optimizer IR shared with the
// GLSL and WGSL frontends. The supported subset is the pragmatic
// pixel-shader core that the study corpus exercises: float2/3/4 and
// float3x3/4x4 value types, Texture2D + SamplerState pairs sampled with
// the .Sample/.SampleLevel methods, cbuffer constant blocks and loose
// $Globals-style uniforms, entry points selected by the SV_Target return
// semantic with TEXCOORDn-attributed parameters, C-style local
// declarations, if/for/while/return/discard control flow, and the
// intrinsic library mapped onto the IR's canonical builtins (lerp→mix,
// frac→fract, rsqrt→inversesqrt, atan2→atan, ddx/ddy→dFdx/dFdy, ...).
//
// Architecturally the frontend mirrors internal/wgsl (itself modeled on
// naga): a separate surface language lowered through the canonical
// checked AST into one shared program form, so the flag-controlled
// passes, the measurement harness, and the GPU cost models stay
// frontend-independent.
package hlsl

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
	Comment // only produced when the lexer keeps comments
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
// names (float4, Texture2D, ...) are resolved contextually by the parser
// — HLSL's intrinsic types behave like predeclared identifiers — so they
// are not listed here.
var keywords = map[string]bool{
	"cbuffer": true, "tbuffer": true, "register": true, "packoffset": true,
	"if": true, "else": true, "for": true, "while": true, "do": true,
	"switch": true, "case": true, "default": true,
	"return": true, "discard": true, "break": true, "continue": true,
	"struct": true, "typedef": true,
	"static": true, "const": true, "uniform": true, "volatile": true,
	"in": true, "out": true, "inout": true,
}

// IsKeyword reports whether s is a reserved word.
func IsKeyword(s string) bool { return keywords[s] }
