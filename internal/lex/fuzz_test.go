package lex_test

// FuzzLexAll runs the four frontends' LexAll, which share this package's
// scanner, on one input. Each must not panic, and a stream it accepts
// must be well placed: positions strictly increase, and each token's
// text starts at the byte its line and column name. CI runs a short
// -fuzztime smoke; `go test -fuzz FuzzLexAll ./internal/lex` runs an
// open-ended campaign.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"shaderopt/internal/corpus"
	"shaderopt/internal/glsl"
	"shaderopt/internal/hlsl"
	"shaderopt/internal/lex"
	"shaderopt/internal/msl"
	"shaderopt/internal/wgsl"
)

var lexers = []struct {
	lang   string
	lexAll func(string) ([]lex.Token, error)
}{
	{"glsl", glsl.LexAll},
	{"hlsl", hlsl.LexAll},
	{"wgsl", wgsl.LexAll},
	{"msl", msl.LexAll},
}

// checkPlacement fails unless toks' positions strictly increase and each
// token's text starts at the byte its position names in src.
func checkPlacement(t *testing.T, lang, src string, toks []lex.Token) {
	t.Helper()
	lineStarts := []int{0}
	for i := 0; i < len(src); i++ {
		if src[i] == '\n' {
			lineStarts = append(lineStarts, i+1)
		}
	}
	var prev lex.Pos
	for i, tok := range toks {
		p := tok.Pos
		if i > 0 && (p.Line < prev.Line || (p.Line == prev.Line && p.Col <= prev.Col)) {
			t.Fatalf("%s: token %d %v at %s does not follow %s", lang, i, tok, p, prev)
		}
		prev = p
		if p.Line < 1 || int(p.Line) > len(lineStarts) || p.Col < 1 {
			t.Fatalf("%s: token %d %v at %s is outside the source", lang, i, tok, p)
		}
		off := lineStarts[p.Line-1] + int(p.Col) - 1
		if off > len(src) || !strings.HasPrefix(src[off:], tok.Text) {
			t.Fatalf("%s: token %d %v is not at byte %d (%s)", lang, i, tok, off, p)
		}
	}
}

func FuzzLexAll(f *testing.F) {
	for _, s := range []string{
		"#version 330\n#define ADD(a,b) a + \\\n  b\nvoid main() { x += 1; }",
		"a /* outer /* inner */ still */ b // tail\n",
		"0x1Fu 0X 1.e5 2.f 3.5lf 7L 1..2 a[0].xy 1e+ .5h 42i",
		"@fragment fn f() -> vec4<f32> { return a::b <<= c >>= d ^^ e; }",
		"#include <metal_stdlib>\n  # pragma x\nfloat4 y;",
		"\t\r\n/* unterminated",
		"x $ y",
		"\x00\x80\xff",
		"",
	} {
		f.Add(s)
	}
	for _, s := range corpus.MustLoad() {
		f.Add(s.Source)
	}
	snaps, err := filepath.Glob(filepath.Join("..", "..", "testdata", "snapshots", "*.msl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range snaps {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, l := range lexers {
			toks, err := l.lexAll(src)
			if err != nil {
				continue
			}
			checkPlacement(t, l.lang, src, toks)
		}
	})
}

// TestLexAllStopsAtFirstError pins how every frontend reports a bad
// byte: the error names its position, and lexing ends there, so the
// tokens before it are all that come back (MSL's with its EOF).
func TestLexAllStopsAtFirstError(t *testing.T) {
	for _, l := range lexers {
		toks, err := l.lexAll("a\n  b $ c ` d")
		want := `2:5: unexpected character "$"`
		if l.lang == "msl" {
			want = "msl: " + want
		}
		if err == nil || err.Error() != want {
			t.Errorf("%s: error %v, want %s", l.lang, err, want)
		}
		var texts []string
		for _, tok := range toks {
			texts = append(texts, tok.Text)
		}
		if got := strings.Join(texts, " "); strings.TrimSpace(got) != "a b" {
			t.Errorf("%s: tokens %q before the error, want a and b", l.lang, texts)
		}
	}
}
