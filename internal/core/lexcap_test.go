package core_test

import (
	"strings"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/crossc"
	"shaderopt/internal/glsl"
	"shaderopt/internal/gpu"
	"shaderopt/internal/hlsl"
	"shaderopt/internal/msl"
	"shaderopt/internal/wgsl"
)

// maxPresized mirrors each lexer's maxPresizedTokens: the most tokens a
// LexAll reserves before it reads any.
const maxPresized = 1 << 15

// TestLexAllNeverRegrowsOnCorpus pins the lexers' presizing: each LexAll
// allocates its token slice once, from the source length, and no corpus
// text of its language has more tokens than that capacity. The check is
// on capacity, not on an allocation count, so it does not depend on the
// Go release's growth policy. The capacities mirror each LexAll: two
// fifths of the length for GLSL and WGSL, a third for HLSL, and a third
// plus the EOF token for MSL, each capped at maxPresized.
func TestLexAllNeverRegrowsOnCorpus(t *testing.T) {
	check := func(kind, name, src string, n, capacity, want int) {
		t.Helper()
		if capacity != want {
			t.Errorf("%s %s: %d tokens in %d bytes regrew the slice to cap %d, presized %d",
				kind, name, n, len(src), capacity, want)
		}
	}
	lexGLSL := func(kind, name, src string) {
		t.Helper()
		toks, err := glsl.LexAll(src)
		if err != nil {
			t.Fatalf("%s %s: %v", kind, name, err)
		}
		check(kind, name, src, len(toks), cap(toks), min(len(src)*2/5, maxPresized))
	}

	all, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range all {
		switch sh.Lang {
		case core.LangWGSL:
			toks, err := wgsl.LexAll(sh.Source)
			if err != nil {
				t.Fatalf("%s: %v", sh.Name, err)
			}
			check("WGSL source", sh.Name, sh.Source, len(toks), cap(toks), min(len(sh.Source)*2/5, maxPresized))
		case core.LangHLSL:
			toks, err := hlsl.LexAll(sh.Source)
			if err != nil {
				t.Fatalf("%s: %v", sh.Name, err)
			}
			check("HLSL source", sh.Name, sh.Source, len(toks), cap(toks), min(len(sh.Source)/3, maxPresized))
		default:
			lexGLSL("GLSL source", sh.Name, sh.Source)
		}
	}

	// Every text the driver front end and the MSL re-ingest lex: the
	// variant texts, their ES conversions and their MSL emissions.
	for _, sh := range enumCorpus(t) {
		h, err := core.Compile(sh.Source, sh.Name, sh.Lang)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range h.Variants().Variants {
			lexGLSL("variant", sh.Name, v.Source)
			prog, err := gpu.FrontEnd(v.Source, "driver")
			if err != nil {
				t.Fatal(err)
			}
			es, err := crossc.ESFromIR(prog, "mobile")
			if err != nil {
				t.Fatal(err)
			}
			lexGLSL("ES text", sh.Name, es)
			src, err := msl.Emit(prog)
			if err != nil {
				t.Fatal(err)
			}
			toks, err := msl.LexAll(src)
			if err != nil {
				t.Fatalf("emitted MSL %s: %v", sh.Name, err)
			}
			check("emitted MSL", sh.Name, src, len(toks), cap(toks), min(len(src)/3+1, maxPresized))
		}
	}
}

// TestLexAllCapsPresize checks that a long source of comments reserves at
// most maxPresized tokens, not a share of its length: a megabyte of
// comments lexes to no tokens and must not cost a 16 MB slice.
func TestLexAllCapsPresize(t *testing.T) {
	src := strings.Repeat("// a comment line, no tokens on it\n", 1<<15)
	lexers := map[string]func(string) (int, error){
		"GLSL": func(s string) (int, error) { toks, err := glsl.LexAll(s); return cap(toks), err },
		"WGSL": func(s string) (int, error) { toks, err := wgsl.LexAll(s); return cap(toks), err },
		"HLSL": func(s string) (int, error) { toks, err := hlsl.LexAll(s); return cap(toks), err },
		"MSL":  func(s string) (int, error) { toks, err := msl.LexAll(s); return cap(toks), err },
	}
	for lang, lex := range lexers {
		capacity, err := lex(src)
		if err != nil {
			t.Fatalf("%s: %v", lang, err)
		}
		if capacity > maxPresized {
			t.Errorf("%s: %d bytes of comments reserved %d tokens, cap %d", lang, len(src), capacity, maxPresized)
		}
	}
}
