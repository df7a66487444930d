// Package hlsl implements the HLSL (High-Level Shading Language) frontend:
// a lexer over the shared internal/lex scanner, HLSL's Grammar and
// module-level declarations on the parser of internal/bind, and HLSL's
// share of the binding into the canonical checked AST that the shared
// lowering turns into the optimizer IR. The supported subset is the
// pragmatic pixel-shader core that the study corpus exercises: float2/3/4
// and float3x3/4x4 value types, Texture2D + SamplerState pairs sampled
// with the .Sample/.SampleLevel methods, cbuffer constant blocks and loose
// $Globals-style uniforms, entry points selected by the SV_Target return
// semantic with TEXCOORDn-attributed parameters, C-style local
// declarations, if/for/while/return/discard control flow, and the
// intrinsic library mapped onto the IR's canonical builtins (lerp→mix,
// frac→fract, rsqrt→inversesqrt, atan2→atan, ddx/ddy→dFdx/dFdy, ...).
//
// The package keeps only what is HLSL's own: its Grammar (?:, .Sample
// methods, [unroll]-style statement attributes, unsized `[]` declarators),
// the module-level declarations (cbuffers flatten into uniforms, semantics
// select the entry point and its interface), type resolution, the rename
// and constructor tables, and HLSL's own calls — mul, mad, fmod and clip,
// and the .Sample methods. internal/bind translates every shared node with
// HLSL's scalar int→float promotion.
package hlsl

import "shaderopt/internal/lex"

// Token is an HLSL token: the shared lexical token.
type Token = lex.Token

// words classifies the reserved words of the supported subset. Type
// names (float4, Texture2D, ...) are resolved contextually by the parser
// — HLSL's intrinsic types behave like predeclared identifiers — so they
// are not listed here.
var words = map[string]lex.Kind{
	"true": lex.BoolLit, "false": lex.BoolLit,

	"cbuffer": lex.Keyword, "tbuffer": lex.Keyword, "register": lex.Keyword, "packoffset": lex.Keyword,
	"if": lex.Keyword, "else": lex.Keyword, "for": lex.Keyword, "while": lex.Keyword, "do": lex.Keyword,
	"switch": lex.Keyword, "case": lex.Keyword, "default": lex.Keyword,
	"return": lex.Keyword, "discard": lex.Keyword, "break": lex.Keyword, "continue": lex.Keyword,
	"struct": lex.Keyword, "typedef": lex.Keyword,
	"static": lex.Keyword, "const": lex.Keyword, "uniform": lex.Keyword, "volatile": lex.Keyword,
	"in": lex.Keyword, "out": lex.Keyword, "inout": lex.Keyword,
}

// ops are HLSL's multi-byte operators, longest first within a shared
// prefix. HLSL has no "->" in the subset (no pointers); shifts are lexed
// but outside the expression grammar.
var ops = []string{
	"<<=", ">>=",
	"==", "!=", "<=", ">=", "&&", "||",
	"+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
	"++", "--", "<<", ">>",
}

// LexAll tokenizes HLSL source, returning tokens up to and excluding EOF.
// The subset has no preprocessor (corpus HLSL shaders are
// pre-specialized), and block comments do not nest (C rules, unlike
// WGSL).
func LexAll(src string) ([]Token, error) {
	// Presized from the source length. Corpus sources run 3.5 to 4.0
	// bytes per token, so a third of the length never regrows on the
	// corpus.
	s := lex.NewScanner(src, len(src)/3)
	for s.Skip(false) {
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

// number scans an HLSL numeric literal: C-style, with f/F/h/H float
// suffixes and u/U/l/L integer suffixes. An unsuffixed token with '.' or
// an exponent is a float.
func number(s *lex.Scanner) {
	if s.Hex() {
		for s.Accept("uUlL") {
		}
		s.Emit(lex.IntLit)
		return
	}
	float := s.Decimal()
	switch s.Peek() {
	case 'f', 'F', 'h', 'H':
		float = true
		s.Advance()
	case 'u', 'U', 'l', 'L':
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
