package passes_test

// Canonical-form golden: for every corpus shader, the sha256 of Print()
// after Canonicalize for each program the study canonicalizes on the way
// to a vendor compile — the driver front end's lowering of each distinct
// variant text, its GLES conversion, and each non-GLSL re-ingest of both.
// Any change to what Canonicalize produces shows up here as a named
// (shader, form) mismatch, independent of whether it moves a score.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/passes -run TestCanonicalFormsGolden -update

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/crossc"
	"shaderopt/internal/gpu"
	"shaderopt/internal/ir"
	"shaderopt/internal/passes"
)

var update = flag.Bool("update", false, "rewrite the golden files of the tests that run from the full corpus")

const canonGolden = "testdata/canon.golden"

// canonForms names the per-shader digests, in line order: the desktop
// lowering, the GLES conversion's lowering, and each of them re-ingested
// through MSL and SPIR-V.
var canonForms = []string{"lower", "es", "lower+msl", "lower+spirv", "es+msl", "es+spirv"}

// canonLine digests every canonical form of one corpus shader's distinct
// driver-visible texts (the original, then the variants in enumeration
// order) as one golden line.
func canonLine(sh *corpus.Shader) (string, error) {
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

	sums := make([]hash.Hash, len(canonForms))
	for i := range sums {
		sums[i] = sha256.New()
	}
	canonical := func(src string) (*ir.Program, string, error) {
		prog, err := gpu.FrontEnd(src, "driver")
		if err != nil {
			return nil, "", err
		}
		es, err := crossc.ESFromIR(prog, "mobile")
		if err != nil {
			return nil, "", err
		}
		passes.Canonicalize(prog)
		return prog, es, nil
	}
	for _, src := range texts {
		desk, es, err := canonical(src)
		if err != nil {
			return "", err
		}
		mobile, _, err := canonical(es)
		if err != nil {
			return "", err
		}
		desk.Print(sums[0])
		mobile.Print(sums[1])
		for i, base := range []*ir.Program{desk, desk, mobile, mobile} {
			format := crossc.IngestMSL
			if i%2 == 1 {
				format = crossc.IngestSPIRV
			}
			re, err := crossc.Reingest(base, "driver", format)
			if err != nil {
				return "", err
			}
			passes.Canonicalize(re)
			re.Print(sums[2+i])
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s texts=%d", sh.Name, len(texts))
	for i, form := range canonForms {
		fmt.Fprintf(&b, " %s=%x", form, sums[i].Sum(nil))
	}
	return b.String(), nil
}

func readCanonGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(canonGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
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

// canonShortNames is the -short subset: every source language, loops,
// branches, discard and an übershader instance, each quick to enumerate.
var canonShortNames = []string{
	"blur/v9", "dof/basic", "godrays/s16", "hlsl/filmic", "particle/kill", "pbr/l2",
	"projtex/compose", "shadow/pcf1", "simple/luma", "tonemap/filmic", "ui/flat", "wgsl/ripple",
}

// TestCanonicalFormsGolden pins every canonical form the study produces
// byte for byte. -short checks canonShortNames; the full run covers the
// corpus.
func TestCanonicalFormsGolden(t *testing.T) {
	shaders, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() && !*update {
		var sub []*corpus.Shader
		for _, n := range canonShortNames {
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
			lines[i], errs[i] = canonLine(sh)
		}(i, sh)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("%s: %v", shaders[i].Name, err)
		}
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(canonGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(canonGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readCanonGolden(t)
	if !testing.Short() && len(want) != len(shaders) {
		t.Errorf("golden has %d shaders, corpus has %d", len(want), len(shaders))
	}
	for i, sh := range shaders {
		w, ok := want[sh.Name]
		if !ok {
			t.Errorf("%s: missing from %s", sh.Name, canonGolden)
			continue
		}
		if lines[i] == w {
			continue
		}
		got, exp := strings.Fields(lines[i]), strings.Fields(w)
		for k := range got {
			if k < len(exp) && got[k] != exp[k] {
				form, _, _ := strings.Cut(got[k], "=")
				t.Errorf("%s: canonical form %q changed", sh.Name, form)
			}
		}
	}
}

// BenchmarkCanonicalize canonicalizes the driver front end's lowering of
// every distinct variant text of a few corpus shaders — the study's
// commonest Canonicalize input.
func BenchmarkCanonicalize(b *testing.B) {
	shaders, err := corpus.Load()
	if err != nil {
		b.Fatal(err)
	}
	var progs []*ir.Program
	for _, n := range []string{"blur/v9", "godrays/s16", "pbr/l2", "hlsl/filmic", "wgsl/ripple"} {
		sh := corpus.ByName(shaders, n)
		h, err := core.Compile(sh.Source, sh.Name, sh.Lang)
		if err != nil {
			b.Fatal(err)
		}
		for _, v := range h.Variants().Variants {
			prog, err := gpu.FrontEnd(v.Source, "driver")
			if err != nil {
				b.Fatal(err)
			}
			progs = append(progs, prog)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	work := make([]*ir.Program, len(progs))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, prog := range progs {
			work[j] = prog.Clone()
		}
		b.StartTimer()
		for _, prog := range work {
			passes.Canonicalize(prog)
		}
	}
}
