package core

import (
	"strings"
	"testing"

	"shaderopt/internal/passes"
)

const src = `#version 330
uniform sampler2D tex;
uniform vec4 tint;
in vec2 uv;
out vec4 color;
void main() {
    vec4 acc = vec4(0.0);
    for (int i = 0; i < 3; i++) {
        acc += texture(tex, uv + vec2(float(i) * 0.01, 0.0)) / 3.0;
    }
    color = acc * tint;
}
`

// mustCompile compiles src (language auto-detected) into a fresh handle,
// failing the test on error.
func mustCompile(t *testing.T, src string) *Shader {
	t.Helper()
	h, err := Compile(src, "t", LangAuto)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestOptimizeProducesValidGLSL(t *testing.T) {
	for _, flags := range []Flags{NoFlags, DefaultFlags, AllFlags} {
		out := mustCompile(t, src).Optimize(flags)
		if !strings.HasPrefix(out, "#version 330") {
			t.Errorf("flags %v: missing version", flags)
		}
		// Output must itself lower.
		if _, err := Compile(out, "re", LangAuto); err != nil {
			t.Fatalf("flags %v: output does not lower: %v\n%s", flags, err, out)
		}
	}
}

func TestOptimizeUnrollRemovesLoop(t *testing.T) {
	out := mustCompile(t, src).Optimize(FlagUnroll)
	if strings.Contains(out, "for (") {
		t.Errorf("loop survived:\n%s", out)
	}
	noopt := mustCompile(t, src).Optimize(NoFlags)
	if !strings.Contains(noopt, "for (") {
		t.Errorf("all-off baseline should keep the loop:\n%s", noopt)
	}
}

func TestEnumerateVariantsComplete(t *testing.T) {
	vs := mustCompile(t, src).Variants()
	if len(vs.ByFlags) != 256 {
		t.Fatalf("mapped %d flag sets", len(vs.ByFlags))
	}
	total := 0
	for _, v := range vs.Variants {
		total += len(v.FlagSets)
		if vs.ByFlags[v.Canonical()] != v {
			t.Error("canonical flag set does not map back")
		}
	}
	if total != 256 {
		t.Fatalf("flag sets across variants = %d", total)
	}
	if vs.Unique() < 2 || vs.Unique() > 48 {
		t.Errorf("unique = %d (paper: few, max 48)", vs.Unique())
	}
}

func TestVariantDedupSoundness(t *testing.T) {
	// Same hash must mean same source.
	vs := mustCompile(t, src).Variants()
	seen := map[string]string{}
	for _, v := range vs.Variants {
		if prev, ok := seen[v.Hash]; ok && prev != v.Source {
			t.Fatal("hash collision with different sources")
		}
		seen[v.Hash] = v.Source
	}
}

func TestFlagChangesOutput(t *testing.T) {
	vs := mustCompile(t, src).Variants()
	if !vs.FlagChangesOutput(FlagUnroll) {
		t.Error("unroll must change this shader")
	}
	if vs.FlagChangesOutput(FlagADCE) {
		t.Error("ADCE must never change output (§VI-D1)")
	}
}

func TestHasFlagInAll(t *testing.T) {
	v := &Variant{FlagSets: []Flags{FlagUnroll, FlagUnroll | FlagADCE}}
	if !v.HasFlagInAll(FlagUnroll) {
		t.Error("unroll in all")
	}
	if v.HasFlagInAll(FlagADCE) {
		t.Error("adce not in all")
	}
}

func TestEnumerateDeterministic(t *testing.T) {
	a := mustCompile(t, src).Variants()
	b := mustCompile(t, src).Variants()
	if a.Unique() != b.Unique() {
		t.Fatal("unique count differs")
	}
	for i := range a.Variants {
		if a.Variants[i].Hash != b.Variants[i].Hash {
			t.Fatal("variant order/content differs")
		}
	}
}

func TestOptimizeErrors(t *testing.T) {
	if _, err := Compile("not glsl", "t", LangAuto); err == nil {
		t.Error("want parse error")
	}
	if _, err := Compile("void main() { break; }", "t", LangAuto); err == nil {
		t.Error("want lower error")
	}
}

func TestHashSourceStable(t *testing.T) {
	if HashSource("abc") != HashSource("abc") {
		t.Error("unstable hash")
	}
	if HashSource("abc") == HashSource("abd") {
		t.Error("collision")
	}
	if len(HashSource("x")) != 16 {
		t.Error("hash length")
	}
}

func TestReexportedFlagConstants(t *testing.T) {
	if DefaultFlags != passes.DefaultFlags || AllFlags != passes.AllFlags {
		t.Error("constants drifted from passes package")
	}
}
