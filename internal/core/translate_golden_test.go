package core_test

// Translation golden: the sha256 of the canonical AST (printed with
// glsl.Print) that the HLSL, WGSL and MSL frontends translate each input
// into, so any change to a parser or a translator shows up as a named
// (language, input) mismatch. A line records the error string alone when
// parsing or translating fails, so rejections are pinned word for word.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/core -run TestTranslateGolden -update

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/glsl"
	"shaderopt/internal/gpu"
	"shaderopt/internal/hlsl"
	"shaderopt/internal/msl"
	"shaderopt/internal/wgsl"
)

const translateGolden = "testdata/translate.golden"

// translators are the three translating frontends' Translate(Parse(src)),
// by language name.
var translators = map[string]func(string) (*glsl.Shader, error){
	"hlsl": func(src string) (*glsl.Shader, error) {
		m, err := hlsl.Parse(src)
		if err != nil {
			return nil, err
		}
		return hlsl.Translate(m)
	},
	"wgsl": func(src string) (*glsl.Shader, error) {
		m, err := wgsl.Parse(src)
		if err != nil {
			return nil, err
		}
		return wgsl.Translate(m)
	},
	"msl": func(src string) (*glsl.Shader, error) {
		m, err := msl.Parse(src)
		if err != nil {
			return nil, err
		}
		return msl.Translate(m)
	},
}

// translateDigest translates src with the named frontend and digests the
// printed canonical AST, or returns the parse or translation error alone.
func translateDigest(lang, src string) string {
	sh, err := translators[lang](src)
	if err != nil {
		return "error " + strconv.Quote(err.Error())
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(glsl.Print(sh))))
}

// translateGoldenLines translates every input the golden covers, one line
// each: every HLSL and WGSL corpus source; per corpus shader the MSL the
// backend emits for its unoptimized program (the text the MSL re-ingest
// translates); the MSL backend snapshots; and every HLSL and WGSL fuzz
// seed.
func translateGoldenLines(t *testing.T) []string {
	t.Helper()
	all, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	var lines []string
	add := func(lang, label, src string) {
		lines = append(lines, lang+" "+label+" "+translateDigest(lang, src))
	}
	for _, sh := range all {
		if lang := sh.Lang.String(); translators[lang] != nil {
			add(lang, "source:"+sh.Name, sh.Source)
		}
		h, err := core.Compile(sh.Source, sh.Name, sh.Lang)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := gpu.FrontEnd(h.Optimize(core.NoFlags), "driver")
		if err != nil {
			t.Fatal(err)
		}
		src, err := msl.Emit(prog)
		if err != nil {
			t.Fatal(err)
		}
		add("msl", "msl:"+sh.Name, src)
	}
	snaps, err := filepath.Glob(filepath.Join("..", "..", "testdata", "snapshots", "*.msl"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(snaps)
	for _, path := range snaps {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		add("msl", "snapshot:"+filepath.Base(path), string(data))
	}
	for _, lang := range []string{"hlsl", "wgsl"} {
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

// TestTranslateGolden pins what the three translating frontends make of
// the corpus, the emitted MSL, the MSL snapshots and the fuzz seeds,
// rejections included. It runs the full set under -short too.
func TestTranslateGolden(t *testing.T) {
	got := translateGoldenLines(t)
	if *update {
		if err := os.WriteFile(translateGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(translateGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Errorf("%d translations, golden has %d", len(got), len(want))
	}
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("translation changed:\n got  %s\n want %s", got[i], want[i])
		}
	}
}
