// Package wgsl implements the WGSL (WebGPU Shading Language) frontend: a
// lexer over the shared internal/lex scanner, WGSL's Grammar and
// module-level declarations on the parser of internal/bind, and WGSL's
// share of the binding into the canonical checked AST that the shared
// lowering turns into the optimizer IR. The supported subset mirrors the
// GLSL subset used by the study corpus: @fragment entry points with
// @location/@builtin parameters, let/var declarations with type inference,
// vecN<f32>-family types, structured control flow (if/else, for, while),
// swizzles, constructors, array types, texture_2d/sampler pairs, and the
// builtin function library the interpreter evaluates.
//
// The package keeps only what is WGSL's own: its Grammar (let and var,
// optional parentheses, braced bodies, templated constructors),
// attributes, module-level var and const declarations, type resolution,
// the rename and constructor tables, and WGSL's own calls — select,
// textureSample* and the templated and array constructors. internal/bind
// translates every shared node; WGSL has no implicit conversions, so
// nothing promotes. Architecturally the frontend is modeled on naga's wgsl
// package.
package wgsl

import "shaderopt/internal/lex"

// Token is a WGSL token: the shared lexical token.
type Token = lex.Token

// words classifies the reserved words of the supported subset. Type
// names (f32, vec4, texture_2d, ...) are ordinary identifiers in WGSL's
// grammar — the parser resolves them contextually — so they are not
// listed here.
var words = map[string]lex.Kind{
	"true": lex.BoolLit, "false": lex.BoolLit,

	"fn": lex.Keyword, "let": lex.Keyword, "var": lex.Keyword, "const": lex.Keyword, "override": lex.Keyword,
	"if": lex.Keyword, "else": lex.Keyword, "for": lex.Keyword, "while": lex.Keyword, "loop": lex.Keyword,
	"return": lex.Keyword, "discard": lex.Keyword, "break": lex.Keyword, "continue": lex.Keyword,
	"continuing": lex.Keyword, "switch": lex.Keyword, "case": lex.Keyword, "default": lex.Keyword,
	"struct": lex.Keyword, "alias": lex.Keyword, "enable": lex.Keyword, "requires": lex.Keyword,
	"diagnostic": lex.Keyword, "const_assert": lex.Keyword,
}

// ops are WGSL's operators beyond the shared punctuation, longest first
// within a shared prefix. "->" is the return-type arrow and "@" starts an
// attribute. Template closers like vec2<vec2<f32>> never appear in the
// subset, so combining ">>" is harmless.
var ops = []string{
	"<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||", "->",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
	"++", "--", "<<", ">>",
	"@",
}

// LexAll tokenizes WGSL source, returning tokens up to and excluding EOF.
// WGSL has no preprocessor, and its block comments nest.
func LexAll(src string) ([]Token, error) {
	// Presized from the source length. Corpus sources run 2.7 to 2.9
	// bytes per token, so two fifths of the length never regrows on the
	// corpus.
	s := lex.NewScanner(src, len(src)*2/5)
	for s.Skip(true) {
		switch c := s.Peek(); {
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

// number scans a WGSL numeric literal. WGSL suffixes: f/h make a float,
// i/u make an integer; an unsuffixed token with '.' or exponent is a
// float. A decimal integer with an f/h suffix (e.g. "2f") is a float. A
// '.' before another '.' or a letter is not a fraction.
func number(s *lex.Scanner) {
	if s.Hex() {
		s.Accept("iu")
		s.Emit(lex.IntLit)
		return
	}
	s.Digits()
	float := false
	if c := s.PeekAt(1); s.Peek() == '.' && c != '.' && !lex.IsWordStart(c) {
		float = true
		s.Advance()
		s.Digits()
	}
	if s.Exponent() {
		float = true
	}
	switch s.Peek() {
	case 'f', 'h':
		float = true
		s.Advance()
	case 'i', 'u':
		if float {
			s.Errorf("integer suffix on float literal")
		}
		s.Advance()
	}
	if float {
		s.Emit(lex.FloatLit)
	} else {
		s.Emit(lex.IntLit)
	}
}
