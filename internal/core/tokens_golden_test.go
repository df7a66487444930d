package core_test

// Token-stream golden: the sha256 of every token stream the four
// frontends' LexAll produce on the texts the study lexes, so a change to
// any lexer shows up as a named (language, text) mismatch. Each line
// digests the (kind, text, line, column) of every token LexAll returns,
// or records the error string alone when lexing fails.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/core -run TestTokenStreamsGolden -update

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/crossc"
	"shaderopt/internal/glsl"
	"shaderopt/internal/gpu"
	"shaderopt/internal/hlsl"
	"shaderopt/internal/lex"
	"shaderopt/internal/msl"
	"shaderopt/internal/wgsl"
)

var update = flag.Bool("update", false, "rewrite the goldens under testdata")

const tokensGolden = "testdata/tokens.golden"

// lexers are the four frontends' LexAll, by language name.
var lexers = map[string]func(string) ([]lex.Token, error){
	"glsl": glsl.LexAll,
	"hlsl": hlsl.LexAll,
	"wgsl": wgsl.LexAll,
	"msl":  msl.LexAll,
}

// lexDigest lexes src with the named frontend's LexAll and digests the
// (kind, text, line, column) stream, or returns the lexing error alone.
func lexDigest(lang, src string) string {
	toks, err := lexers[lang](src)
	if err != nil {
		return "error " + strconv.Quote(err.Error())
	}
	h := sha256.New()
	for _, t := range toks {
		fmt.Fprintf(h, "%s\x00%q\x00%d\x00%d\n", t.Kind, t.Text, t.Pos.Line, t.Pos.Col)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// seedInput decodes the string (or []byte) value of a one-argument fuzz
// corpus file.
func seedInput(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(string(data)), "\n", 2)
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a fuzz corpus file", path)
	}
	v := lines[1]
	for _, prefix := range []string{"string(", "[]byte("} {
		if strings.HasPrefix(v, prefix) && strings.HasSuffix(v, ")") {
			s, err := strconv.Unquote(v[len(prefix) : len(v)-1])
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			return s
		}
	}
	t.Fatalf("%s: want one string or []byte value, got %s", path, v)
	return ""
}

// tokenGoldenLines lexes every input the golden covers, one line each:
// every corpus source in its own language; per corpus shader the
// unoptimized desktop GLSL, its ES conversion and its emitted MSL (the
// texts the driver front end and the MSL re-ingest lex); and every seed
// under the frontends' testdata/fuzz.
func tokenGoldenLines(t *testing.T) []string {
	t.Helper()
	all, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	add := func(lang, label, src string) {
		lines = append(lines, lang+" "+label+" "+lexDigest(lang, src))
	}
	for _, sh := range all {
		add(sh.Lang.String(), "source:"+sh.Name, sh.Source)
		h, err := core.Compile(sh.Source, sh.Name, sh.Lang)
		if err != nil {
			t.Fatal(err)
		}
		text := h.Optimize(core.NoFlags)
		add("glsl", "glsl:"+sh.Name, text)
		prog, err := gpu.FrontEnd(text, "driver")
		if err != nil {
			t.Fatal(err)
		}
		es, err := crossc.ESFromIR(prog, "mobile")
		if err != nil {
			t.Fatal(err)
		}
		add("glsl", "es:"+sh.Name, es)
		src, err := msl.Emit(prog)
		if err != nil {
			t.Fatal(err)
		}
		add("msl", "msl:"+sh.Name, src)
	}
	for _, lang := range []string{"glsl", "hlsl", "msl", "wgsl"} {
		seeds, err := filepath.Glob(filepath.Join("..", lang, "testdata", "fuzz", "*", "*"))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(seeds)
		for _, path := range seeds {
			rel, err := filepath.Rel(filepath.Join("..", lang, "testdata", "fuzz"), path)
			if err != nil {
				t.Fatal(err)
			}
			add(lang, "seed:"+filepath.ToSlash(rel), seedInput(t, path))
		}
	}
	return lines
}

// TestTokenStreamsGolden pins every frontend's token stream on the
// corpus, its generated texts and the fuzz seeds. It runs the full set
// under -short too: lexing is cheap next to the compiles that produce
// the texts.
func TestTokenStreamsGolden(t *testing.T) {
	got := tokenGoldenLines(t)
	if *update {
		if err := os.WriteFile(tokensGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(tokensGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d token streams, golden has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("token stream changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
