package crossc_test

// ES-text golden: for every corpus shader, the sha256 of the GLES text
// the mobile conversion produces on both of its study paths — ESFromIR
// of the driver front end's lowering of each distinct driver-visible text
// (the search and harness path), and ToES of the GLSL original under the
// shader's own name (the analysis path). Any change to the conversion's
// output shows up here as a named (shader, path) mismatch, whether or not
// it moves a score.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/crossc -run TestESTextGolden -update

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/crossc"
	"shaderopt/internal/gpu"
)

var update = flag.Bool("update", false, "rewrite testdata/es.golden from the full corpus")

const esGolden = "testdata/es.golden"

// esLine digests one corpus shader's GLES conversions as one golden line:
// es= covers ESFromIR over the distinct driver-visible texts (the
// original when it is GLSL, then the variants in enumeration order),
// toes= covers ToES of the GLSL original ("-" for WGSL/HLSL sources,
// which the analysis path converts to GLSL first). It also checks that
// ESFromIR leaves its input program untouched.
func esLine(sh *corpus.Shader) (string, error) {
	h, err := core.Compile(sh.Source, sh.Name, sh.Lang)
	if err != nil {
		return "", err
	}
	vs := h.Variants()
	texts := make([]string, 0, 1+vs.Unique())
	seen := map[string]bool{}
	add := func(src string) {
		if !seen[src] {
			seen[src] = true
			texts = append(texts, src)
		}
	}
	if h.Lang == core.LangGLSL {
		add(h.Source)
	}
	for _, v := range vs.Variants {
		add(v.Source)
	}

	sum := sha256.New()
	var before, after bytes.Buffer
	for _, src := range texts {
		prog, err := gpu.FrontEnd(src, "driver")
		if err != nil {
			return "", err
		}
		before.Reset()
		prog.Print(&before)
		es, err := crossc.ESFromIR(prog, "mobile")
		if err != nil {
			return "", err
		}
		after.Reset()
		prog.Print(&after)
		if !bytes.Equal(before.Bytes(), after.Bytes()) {
			return "", fmt.Errorf("ESFromIR modified its input program")
		}
		io.WriteString(sum, es)
		sum.Write([]byte{0})
	}
	toES := "-"
	if h.Lang == core.LangGLSL {
		es, err := crossc.ToES(sh.Source, sh.Name)
		if err != nil {
			return "", err
		}
		toES = fmt.Sprintf("%x", sha256.Sum256([]byte(es)))
	}
	return fmt.Sprintf("%s texts=%d es=%x toes=%s", sh.Name, len(texts), sum.Sum(nil), toES), nil
}

func readESGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(esGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		name, _, _ := strings.Cut(line, " ")
		out[name] = line
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// esShortNames is the -short subset: every source language, loops,
// branches, discard and an übershader instance.
var esShortNames = []string{
	"blur/v9", "dof/basic", "godrays/s16", "hlsl/filmic", "particle/kill", "pbr/l2",
	"projtex/compose", "shadow/pcf1", "simple/luma", "tonemap/filmic", "ui/flat", "wgsl/ripple",
}

// TestESTextGolden pins every GLES text the study converts byte for
// byte. -short checks esShortNames; the full run covers the corpus.
func TestESTextGolden(t *testing.T) {
	shaders, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() && !*update {
		var sub []*corpus.Shader
		for _, n := range esShortNames {
			sh := corpus.ByName(shaders, n)
			if sh == nil {
				t.Fatalf("missing corpus shader %s", n)
			}
			sub = append(sub, sh)
		}
		shaders = sub
	}
	lines := make([]string, len(shaders))
	errs := make([]error, len(shaders))
	var wg sync.WaitGroup
	sem := make(chan struct{}, 2)
	for i, sh := range shaders {
		wg.Add(1)
		go func(i int, sh *corpus.Shader) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			lines[i], errs[i] = esLine(sh)
		}(i, sh)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", shaders[i].Name, err)
		}
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(esGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(esGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readESGolden(t)
	if !testing.Short() && len(want) != len(shaders) {
		t.Errorf("golden has %d shaders, corpus has %d", len(want), len(shaders))
	}
	for i, sh := range shaders {
		w, ok := want[sh.Name]
		if !ok {
			t.Errorf("%s: missing from %s", sh.Name, esGolden)
			continue
		}
		if lines[i] == w {
			continue
		}
		got, exp := strings.Fields(lines[i]), strings.Fields(w)
		for k := range got {
			if k < len(exp) && got[k] != exp[k] {
				path, _, _ := strings.Cut(got[k], "=")
				t.Errorf("%s: %s changed", sh.Name, path)
			}
		}
	}
}
