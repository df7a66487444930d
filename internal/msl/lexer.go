package msl

import (
	"fmt"

	"shaderopt/internal/lex"
)

// Token is an MSL token: the shared lexical token.
type Token = lex.Token

// words classifies the MSL reserved words the parser dispatches on. Type
// names (float3, texture2d, ...) are contextual identifiers, as in the
// HLSL frontend; address-space and function qualifiers are keywords.
var words = map[string]lex.Kind{
	"true": lex.BoolLit, "false": lex.BoolLit,

	"struct": lex.Keyword, "return": lex.Keyword, "if": lex.Keyword, "else": lex.Keyword, "for": lex.Keyword,
	"while": lex.Keyword, "do": lex.Keyword, "break": lex.Keyword, "continue": lex.Keyword,
	"const": lex.Keyword, "static": lex.Keyword, "inline": lex.Keyword, "template": lex.Keyword,
	"typename": lex.Keyword, "using": lex.Keyword, "namespace": lex.Keyword,
	"fragment": lex.Keyword, "vertex": lex.Keyword, "kernel": lex.Keyword,
	"constant": lex.Keyword, "device": lex.Keyword, "thread": lex.Keyword, "threadgroup": lex.Keyword,
}

// IsKeyword reports whether s is an MSL keyword in the subset.
func IsKeyword(s string) bool { return words[s] == lex.Keyword }

// ops are MSL's multi-byte operators, longest first within a shared
// prefix; "::" qualifies names.
var ops = []string{"<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "++", "--", "::"}

// LexAll tokenizes MSL source, ending the stream with an EOF token.
// Preprocessor directives (#include lines) are skipped whole: the
// emitted dialect only uses them for the standard headers, which the
// frontend models directly.
func LexAll(src string) ([]Token, error) {
	return lexWith(lex.NewScanner(src, presize(src)))
}

// presize is the token count a scanner over src reserves, with room for
// EOF: emitted MSL of the corpus runs 3.9 to 4.9 bytes per token, so a
// third of the length never regrows on it.
func presize(src string) int { return len(src)/3 + 1 }

// lexWith runs LexAll's scan on s.
func lexWith(s lex.Scanner) ([]Token, error) {
	for s.Skip(false) {
		switch c := s.Peek(); {
		case c == '#':
			s.SkipLine()
		case s.AtNumber():
			number(&s)
		case lex.IsWordStart(c):
			s.Word(words)
		default:
			s.Op(ops)
		}
	}
	s.Emit(lex.EOF)
	if err := s.Err(); err != nil {
		return s.Tokens(), fmt.Errorf("msl: %w", err)
	}
	return s.Tokens(), nil
}

// number scans an MSL numeric literal. A suffix is dropped from the
// token's text: f/F/h/H mark a float, u/U/l/L an integer.
func number(s *lex.Scanner) {
	float := !s.Hex() && s.Decimal()
	switch s.Peek() {
	case 'f', 'F', 'h', 'H':
		float = true
	}
	if float {
		s.Emit(lex.FloatLit)
	} else {
		s.Emit(lex.IntLit)
	}
	s.Accept("fFhHuUlL")
}
