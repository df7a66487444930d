package wgsl

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

func TestLexPunctuationAndArrow(t *testing.T) {
	toks := kinds(t, "fn f() -> vec4<f32> { }")
	want := []struct {
		kind lex.Kind
		text string
	}{
		{lex.Keyword, "fn"}, {lex.Ident, "f"}, {lex.Punct, "("}, {lex.Punct, ")"},
		{lex.Punct, "->"}, {lex.Ident, "vec4"}, {lex.Punct, "<"}, {lex.Ident, "f32"},
		{lex.Punct, ">"}, {lex.Punct, "{"}, {lex.Punct, "}"},
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

func TestLexAttributes(t *testing.T) {
	toks := kinds(t, "@fragment @location(0)")
	if toks[0].Text != "@" || toks[1].Text != "fragment" {
		t.Errorf("bad @fragment lexing: %v", toks[:2])
	}
	if toks[2].Text != "@" || toks[3].Text != "location" {
		t.Errorf("bad @location lexing: %v", toks[2:4])
	}
}

func TestLexNumberSuffixes(t *testing.T) {
	cases := []struct {
		src  string
		kind lex.Kind
	}{
		{"1", lex.IntLit},
		{"42i", lex.IntLit},
		{"7u", lex.IntLit},
		{"0x1Fu", lex.IntLit},
		{"1.5", lex.FloatLit},
		{"2f", lex.FloatLit},   // integer digits + f suffix is a float in WGSL
		{"1.0h", lex.FloatLit}, // half literal
		{".25", lex.FloatLit},
		{"1e3", lex.FloatLit},
		{"2.5e-2", lex.FloatLit},
	}
	for _, c := range cases {
		toks := kinds(t, c.src)
		if len(toks) != 1 || toks[0].Kind != c.kind {
			t.Errorf("%q lexed as %v, want one %s", c.src, toks, c.kind)
		}
	}
}

func TestLexNestedBlockComment(t *testing.T) {
	toks := kinds(t, "a /* outer /* inner */ still comment */ b")
	if len(toks) != 2 || toks[0].Text != "a" || toks[1].Text != "b" {
		t.Fatalf("nested comment not skipped: %v", toks)
	}
}

func TestLexLineComment(t *testing.T) {
	toks := kinds(t, "let x = 1; // trailing\nlet y = 2;")
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
	toks := kinds(t, "let var fn f32 vec4 texture_2d discard")
	wantKinds := []lex.Kind{lex.Keyword, lex.Keyword, lex.Keyword, lex.Ident, lex.Ident, lex.Ident, lex.Keyword}
	for i, k := range wantKinds {
		if toks[i].Kind != k {
			t.Errorf("tok %d (%q) = %s, want %s", i, toks[i].Text, toks[i].Kind, k)
		}
	}
}

func TestLexSwizzleAfterInt(t *testing.T) {
	// "v.x" after an index: ensure '.' then ident, not a malformed float.
	toks := kinds(t, "a[0].xy")
	texts := []string{"a", "[", "0", "]", ".", "xy"}
	if len(toks) != len(texts) {
		t.Fatalf("got %v", toks)
	}
	for i, w := range texts {
		if toks[i].Text != w {
			t.Errorf("tok %d = %q, want %q", i, toks[i].Text, w)
		}
	}
}

func TestLexErrorOnBadChar(t *testing.T) {
	if _, err := LexAll("let $ = 1;"); err == nil {
		t.Fatal("expected error on '$'")
	}
}
