// Package glsl implements a lexer, parser, AST, and printer for the subset
// of the OpenGL Shading Language used by GFXBench-style fragment shaders.
//
// The subset covers desktop GLSL 330-era and OpenGL ES 3.0-era fragment
// shaders: scalar/vector/matrix types, samplers, const arrays, user-defined
// functions, structured control flow (if/else and canonical for loops),
// swizzles, constructors, and the common builtin function library.
package glsl

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
	TypeName
	Punct   // single or multi char punctuation/operator
	PPLine  // a raw preprocessor line (only produced when lexer keeps directives)
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
	case TypeName:
		return "type name"
	case Punct:
		return "punctuation"
	case PPLine:
		return "preprocessor line"
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

// keywords is the set of reserved words that are not type names.
var keywords = map[string]bool{
	"const": true, "uniform": true, "in": true, "out": true, "inout": true,
	"varying": true, "attribute": true,
	"if": true, "else": true, "for": true, "while": true, "do": true,
	"return": true, "discard": true, "break": true, "continue": true,
	"struct": true, "layout": true, "precision": true,
	"highp": true, "mediump": true, "lowp": true,
	"flat": true, "smooth": true, "noperspective": true, "centroid": true,
	"invariant": true,
}

// typeNames is the set of builtin type names in the supported subset.
var typeNames = map[string]bool{
	"void": true, "bool": true, "int": true, "uint": true, "float": true,
	"vec2": true, "vec3": true, "vec4": true,
	"ivec2": true, "ivec3": true, "ivec4": true,
	"uvec2": true, "uvec3": true, "uvec4": true,
	"bvec2": true, "bvec3": true, "bvec4": true,
	"mat2": true, "mat3": true, "mat4": true,
	"sampler2D": true, "sampler3D": true, "samplerCube": true,
	"sampler2DShadow": true, "sampler2DArray": true,
}

// IsKeyword reports whether s is a reserved (non-type) keyword.
func IsKeyword(s string) bool { return keywords[s] }

// IsTypeName reports whether s names a builtin type in the subset.
func IsTypeName(s string) bool { return typeNames[s] }
