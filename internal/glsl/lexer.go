// Package glsl implements a lexer, parser, AST, and printer for the subset
// of the OpenGL Shading Language used by GFXBench-style fragment shaders.
// The lexer is a thin layer over the shared internal/lex scanner: it adds
// GLSL's word and operator tables, its literal suffixes and its
// preprocessor lines.
//
// The subset covers desktop GLSL 330-era and OpenGL ES 3.0-era fragment
// shaders: scalar/vector/matrix types, samplers, const arrays, user-defined
// functions, structured control flow (if/else and canonical for loops),
// swizzles, constructors, and the common builtin function library.
package glsl

import "shaderopt/internal/lex"

// Token is a GLSL token: the shared lexical token.
type Token = lex.Token

// words classifies GLSL's reserved words: the keywords, the builtin type
// names of the supported subset, and the bool literals.
var words = map[string]lex.Kind{
	"true": lex.BoolLit, "false": lex.BoolLit,

	"const": lex.Keyword, "uniform": lex.Keyword, "in": lex.Keyword, "out": lex.Keyword, "inout": lex.Keyword,
	"varying": lex.Keyword, "attribute": lex.Keyword,
	"if": lex.Keyword, "else": lex.Keyword, "for": lex.Keyword, "while": lex.Keyword, "do": lex.Keyword,
	"return": lex.Keyword, "discard": lex.Keyword, "break": lex.Keyword, "continue": lex.Keyword,
	"struct": lex.Keyword, "layout": lex.Keyword, "precision": lex.Keyword,
	"highp": lex.Keyword, "mediump": lex.Keyword, "lowp": lex.Keyword,
	"flat": lex.Keyword, "smooth": lex.Keyword, "noperspective": lex.Keyword, "centroid": lex.Keyword,
	"invariant": lex.Keyword,

	"void": lex.TypeName, "bool": lex.TypeName, "int": lex.TypeName, "uint": lex.TypeName, "float": lex.TypeName,
	"vec2": lex.TypeName, "vec3": lex.TypeName, "vec4": lex.TypeName,
	"ivec2": lex.TypeName, "ivec3": lex.TypeName, "ivec4": lex.TypeName,
	"uvec2": lex.TypeName, "uvec3": lex.TypeName, "uvec4": lex.TypeName,
	"bvec2": lex.TypeName, "bvec3": lex.TypeName, "bvec4": lex.TypeName,
	"mat2": lex.TypeName, "mat3": lex.TypeName, "mat4": lex.TypeName,
	"sampler2D": lex.TypeName, "sampler3D": lex.TypeName, "samplerCube": lex.TypeName,
	"sampler2DShadow": lex.TypeName, "sampler2DArray": lex.TypeName,
}

// IsKeyword reports whether s is a reserved (non-type) keyword.
func IsKeyword(s string) bool { return words[s] == lex.Keyword }

// IsTypeName reports whether s names a builtin type in the subset.
func IsTypeName(s string) bool { return words[s] == lex.TypeName }

// ops are GLSL's multi-byte operators, longest first within a shared
// prefix.
var ops = []string{
	"<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "^^",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
	"++", "--", "<<", ">>",
}

// LexAll tokenizes GLSL source, returning tokens up to and excluding EOF.
// A '#' first on its line starts a preprocessor line, returned whole as
// one PPLine token: the parser accepts #version, #extension and #pragma,
// and the pp package expands the rest.
func LexAll(src string) ([]Token, error) {
	return lexWith(lex.NewScanner(src, presize(src)))
}

// presize is the token count a scanner over src reserves. Corpus sources
// run 2.9 to 5.0 bytes per token and generated texts 3.5 to 4.7, so two
// fifths of the length never regrows on the corpus.
func presize(src string) int { return len(src) * 2 / 5 }

// lexWith runs LexAll's scan on s.
func lexWith(s lex.Scanner) ([]Token, error) {
	for s.Skip(false) {
		switch c := s.Peek(); {
		case c == '#' && s.AtLineStart():
			directive(&s)
		case s.AtNumber():
			number(&s)
		case lex.IsWordStart(c):
			s.Word(words)
		default:
			s.Op(ops)
		}
	}
	return s.Tokens(), s.Err()
}

// directive scans a preprocessor line through the end of its logical
// line: a newline after a backslash (and blanks) continues it.
func directive(s *lex.Scanner) {
	var last byte // the last non-blank byte
	for s.More() {
		c := s.Peek()
		if c == '\n' && last != '\\' {
			break
		}
		if c != ' ' && c != '\t' && c != '\r' {
			last = c
		}
		s.Advance()
	}
	s.Emit(lex.PPLine)
}

// number scans a GLSL numeric literal. Hex integers take a u suffix;
// decimals take f (float), u (int only) or lf (float).
func number(s *lex.Scanner) {
	if s.Hex() {
		s.Accept("uU")
		s.Emit(lex.IntLit)
		return
	}
	float := s.Decimal()
	switch s.Peek() {
	case 'f', 'F':
		float = true
		s.Advance()
	case 'u', 'U':
		if !float {
			s.Advance()
		}
	case 'l', 'L':
		if c := s.PeekAt(1); c == 'f' || c == 'F' {
			float = true
			s.Advance()
			s.Advance()
		}
	}
	if float {
		s.Emit(lex.FloatLit)
	} else {
		s.Emit(lex.IntLit)
	}
}
