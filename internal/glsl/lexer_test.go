package glsl

import (
	"strings"
	"testing"

	"shaderopt/internal/lex"
)

func kinds(toks []Token) []lex.Kind {
	out := make([]lex.Kind, len(toks))
	for i, t := range toks {
		out[i] = t.Kind
	}
	return out
}

func TestLexBasicTokens(t *testing.T) {
	toks, err := LexAll("vec4 color = texture(tex, uv) * 2.0;")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind lex.Kind
		text string
	}{
		{lex.TypeName, "vec4"}, {lex.Ident, "color"}, {lex.Punct, "="},
		{lex.Ident, "texture"}, {lex.Punct, "("}, {lex.Ident, "tex"}, {lex.Punct, ","},
		{lex.Ident, "uv"}, {lex.Punct, ")"}, {lex.Punct, "*"}, {lex.FloatLit, "2.0"},
		{lex.Punct, ";"},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = %v, want %s %q", i, toks[i], w.kind, w.text)
		}
	}
}

func TestLexNumberForms(t *testing.T) {
	cases := []struct {
		src  string
		kind lex.Kind
	}{
		{"0", lex.IntLit},
		{"42", lex.IntLit},
		{"0x1F", lex.IntLit},
		{"7u", lex.IntLit},
		{"1.0", lex.FloatLit},
		{".5", lex.FloatLit},
		{"3.", lex.FloatLit},
		{"1e5", lex.FloatLit},
		{"1.5e-3", lex.FloatLit},
		{"2.0f", lex.FloatLit},
		{"1E+2", lex.FloatLit},
	}
	for _, c := range cases {
		toks, err := LexAll(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		if len(toks) != 1 {
			t.Fatalf("%q: got %d tokens %v", c.src, len(toks), toks)
		}
		if toks[0].Kind != c.kind {
			t.Errorf("%q: kind = %v, want %v", c.src, toks[0].Kind, c.kind)
		}
	}
}

func TestLexFloatDotFieldAmbiguity(t *testing.T) {
	// "v.x" must not lex ".x" as a number start.
	toks, err := LexAll("v.xyz")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 || toks[1].Text != "." || toks[2].Text != "xyz" {
		t.Fatalf("got %v", toks)
	}
}

func TestLexComments(t *testing.T) {
	toks, err := LexAll("a // line comment\nb /* block\ncomment */ c")
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) != 3 {
		t.Fatalf("got %v", toks)
	}
	for i, want := range []string{"a", "b", "c"} {
		if toks[i].Text != want {
			t.Errorf("token %d = %q, want %q", i, toks[i].Text, want)
		}
	}
}

func TestLexUnterminatedComment(t *testing.T) {
	_, err := LexAll("a /* never closed")
	if err == nil {
		t.Fatal("want error for unterminated block comment")
	}
}

func TestLexDirectives(t *testing.T) {
	src := "#version 330\n#define FOO 1\nfloat x;"
	toks, err := LexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != lex.PPLine || !strings.HasPrefix(toks[0].Text, "#version") {
		t.Fatalf("token 0 = %v", toks[0])
	}
	if toks[1].Kind != lex.PPLine || !strings.HasPrefix(toks[1].Text, "#define") {
		t.Fatalf("token 1 = %v", toks[1])
	}
	if toks[2].Kind != lex.TypeName {
		t.Fatalf("token 2 = %v", toks[2])
	}
}

func TestLexDirectiveContinuation(t *testing.T) {
	src := "#define ADD(a,b) a + \\\n  b\nfloat x;"
	toks, err := LexAll(src)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != lex.PPLine || !strings.Contains(toks[0].Text, "b") {
		t.Fatalf("continuation not merged: %v", toks[0])
	}
}

func TestLexDirectiveMidLineHash(t *testing.T) {
	// The lexer only treats line-leading '#' as a directive; a '#' later
	// on the line is an error.
	_, err := LexAll("float x; # bogus")
	if err == nil {
		t.Fatal("want error for mid-line '#'")
	}
}

func TestLexMultiCharOps(t *testing.T) {
	toks, err := LexAll("a += b; c <= d; e && f; g != h; i++")
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tok := range toks {
		if tok.Kind == lex.Punct && len(tok.Text) > 1 {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"+=", "<=", "&&", "!=", "++"}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v, want %v", ops, want)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Errorf("op %d = %q, want %q", i, ops[i], want[i])
		}
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := LexAll("a\n  bb\n   ccc")
	if err != nil {
		t.Fatal(err)
	}
	wantPos := []lex.Pos{{Line: 1, Col: 1}, {Line: 2, Col: 3}, {Line: 3, Col: 4}}
	for i, w := range wantPos {
		if toks[i].Pos != w {
			t.Errorf("token %d pos = %v, want %v", i, toks[i].Pos, w)
		}
	}
}

func TestLexKindString(t *testing.T) {
	for k := lex.EOF; k <= lex.PPLine; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty string", k)
		}
	}
}
