package hlsl

import (
	"strings"
	"testing"

	"shaderopt/internal/lex"
)

func kinds(t *testing.T, src string) []Token {
	t.Helper()
	toks, err := LexAll(src)
	if err != nil {
		t.Fatalf("LexAll(%q): %v", src, err)
	}
	return toks
}

func TestLexSignatureAndSemantic(t *testing.T) {
	toks := kinds(t, "float4 main(float2 uv : TEXCOORD0) : SV_Target { }")
	want := []struct {
		kind lex.Kind
		text string
	}{
		{lex.Ident, "float4"}, {lex.Ident, "main"}, {lex.Punct, "("},
		{lex.Ident, "float2"}, {lex.Ident, "uv"}, {lex.Punct, ":"}, {lex.Ident, "TEXCOORD0"},
		{lex.Punct, ")"}, {lex.Punct, ":"}, {lex.Ident, "SV_Target"},
		{lex.Punct, "{"}, {lex.Punct, "}"},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("tok %d = %v, want %s %q", i, toks[i], w.kind, w.text)
		}
	}
}

func TestLexNumberSuffixes(t *testing.T) {
	cases := []struct {
		src  string
		kind lex.Kind
	}{
		{"1", lex.IntLit},
		{"42u", lex.IntLit},
		{"7L", lex.IntLit},
		{"0x1Fu", lex.IntLit},
		{"1.5", lex.FloatLit},
		{"2.0f", lex.FloatLit},
		{"2.0F", lex.FloatLit},
		{"1.0h", lex.FloatLit}, // half literal
		{".25", lex.FloatLit},
		{"1e3", lex.FloatLit},
		{"2.5e-2", lex.FloatLit},
		{"3.f", lex.FloatLit}, // C allows a bare trailing dot
	}
	for _, c := range cases {
		toks := kinds(t, c.src)
		if len(toks) != 1 || toks[0].Kind != c.kind {
			t.Errorf("%q lexed as %v, want one %s", c.src, toks, c.kind)
		}
	}
}

func TestLexBlockCommentDoesNotNest(t *testing.T) {
	// C comment rules: the first */ closes the comment, unlike WGSL.
	toks := kinds(t, "a /* outer /* inner */ b")
	if len(toks) != 2 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Fatalf("C block comment mishandled: %v", toks)
	}
	if _, err := LexAll("/* unterminated"); err == nil {
		t.Fatal("expected error for unterminated block comment")
	}
}

func TestLexLineComment(t *testing.T) {
	toks := kinds(t, "float x = 1.0; // trailing\nfloat y = 2.0;")
	for _, tok := range toks {
		if strings.Contains(tok.Text, "/") || tok.Text == "trailing" {
			t.Fatalf("comment leaked: %v", tok)
		}
	}
	if len(toks) != 10 {
		t.Fatalf("got %d tokens: %v", len(toks), toks)
	}
}

func TestLexKeywordsVsIdents(t *testing.T) {
	// Type names are contextual identifiers; storage and control words are
	// keywords.
	toks := kinds(t, "cbuffer static const float4 Texture2D SamplerState discard register")
	wantKinds := []lex.Kind{lex.Keyword, lex.Keyword, lex.Keyword, lex.Ident, lex.Ident, lex.Ident, lex.Keyword, lex.Keyword}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Errorf("tok %d (%q) = %s, want %s", i, toks[i].Text, toks[i].Kind, k)
		}
	}
}

func TestLexMethodCallChain(t *testing.T) {
	toks := kinds(t, "tex.Sample(s, uv).rgb")
	texts := []string{"tex", ".", "Sample", "(", "s", ",", "uv", ")", ".", "rgb"}
	if len(toks) != len(texts) {
		t.Fatalf("got %v", toks)
	}
	for i, w := range texts {
		if toks[i].Text != w {
			t.Errorf("tok %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestLexTernaryAndCompare(t *testing.T) {
	toks := kinds(t, "a >= b ? x : y")
	texts := []string{"a", ">=", "b", "?", "x", ":", "y"}
	for i, w := range texts {
		if toks[i].Text != w {
			t.Errorf("tok %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestLexBoolLits(t *testing.T) {
	toks := kinds(t, "true false truer")
	if toks[0].Kind != lex.BoolLit || toks[1].Kind != lex.BoolLit || toks[2].Kind != lex.Ident {
		t.Errorf("bool literal lexing: %v", toks)
	}
}

func TestLexErrorOnBadChar(t *testing.T) {
	if _, err := LexAll("float $ = 1.0;"); err == nil {
		t.Fatal("expected error on '$'")
	}
}
