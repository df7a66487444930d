package corpus

import (
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/crossc"
	"shaderopt/internal/exec"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
)

func TestLoadCorpus(t *testing.T) {
	shaders, err := Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(shaders) < 60 {
		t.Fatalf("corpus too small: %d shaders", len(shaders))
	}
	seen := map[string]bool{}
	for _, s := range shaders {
		if seen[s.Name] {
			t.Errorf("duplicate shader name %q", s.Name)
		}
		seen[s.Name] = true
		if s.Lines <= 0 {
			t.Errorf("%s: zero lines", s.Name)
		}
	}
}

// TestCorpusShapeMatchesPaper checks the Fig. 4a distribution claims: a
// power-law-like shape, most shaders below 50 lines, maximum around 300,
// and rare loops.
func TestCorpusShapeMatchesPaper(t *testing.T) {
	shaders := MustLoad()
	under50, maxLines := 0, 0
	for _, s := range shaders {
		if s.Lines < 50 {
			under50++
		}
		if s.Lines > maxLines {
			maxLines = s.Lines
		}
	}
	if frac := float64(under50) / float64(len(shaders)); frac < 0.5 {
		t.Errorf("only %.0f%% of shaders under 50 lines; paper says the majority", frac*100)
	}
	if maxLines > 400 {
		t.Errorf("largest shader has %d lines; paper caps around 300", maxLines)
	}
	if maxLines < 40 {
		t.Errorf("largest shader only %d lines; need a long tail", maxLines)
	}
}

// TestEveryShaderCompilesEverywhere is the corpus gate: each shader must
// lower, run under the interpreter with the default harness environment,
// and compile on all five platforms (including the mobile conversion).
func TestEveryShaderCompilesEverywhere(t *testing.T) {
	shaders := MustLoad()
	platforms := gpu.Platforms()
	for _, s := range shaders {
		h, err := core.Compile(s.Source, s.Name, core.LangAuto)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		prog := h.IR()
		env := harness.DefaultEnv(prog)
		if _, err := exec.Run(prog, env); err != nil {
			t.Fatalf("%s: interpreter: %v", s.Name, err)
		}
		// Drivers consume desktop GLSL: WGSL shaders reach them through
		// the frontend's translation, GLSL shaders as written.
		driverSrc, err := core.ToGLSL(s.Source, s.Name, s.Lang)
		if err != nil {
			t.Fatalf("%s: to GLSL: %v", s.Name, err)
		}
		for _, pl := range platforms {
			src := driverSrc
			if pl.Mobile {
				src, err = crossc.ToES(driverSrc, s.Name)
				if err != nil {
					t.Fatalf("%s on %s: conversion: %v", s.Name, pl.Vendor, err)
				}
			}
			if _, err := pl.CompileSource(src); err != nil {
				t.Fatalf("%s on %s: %v", s.Name, pl.Vendor, err)
			}
		}
	}
}

// TestVariantEnumerationShape checks the Fig. 4c claims on a sample: few
// unique variants per shader (max ≤ 48, most below 10).
func TestVariantEnumerationShape(t *testing.T) {
	shaders := MustLoad()
	// Sample across the complexity range.
	names := []string{"ui/flat", "skybox/plain", "blur/v9", "tonemap/filmic_full", "fxaa/hq", "pbr/l2_spec_nm"}
	maxUnique := 0
	for _, name := range names {
		s := ByName(shaders, name)
		if s == nil {
			t.Fatalf("missing %s", name)
		}
		h, err := core.Compile(s.Source, s.Name, core.LangAuto)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		vs := h.Variants()
		if vs.Unique() < 1 || vs.Unique() > 48 {
			t.Errorf("%s: %d unique variants, want 1..48", name, vs.Unique())
		}
		if vs.Unique() > maxUnique {
			maxUnique = vs.Unique()
		}
		// All 256 combinations must be mapped.
		if len(vs.ByFlags) != 256 {
			t.Errorf("%s: %d flag mappings", name, len(vs.ByFlags))
		}
	}
	if maxUnique < 2 {
		t.Error("expected at least one shader with multiple variants")
	}
}

func TestTrivialShaderHasFewVariants(t *testing.T) {
	shaders := MustLoad()
	s := ByName(shaders, "ui/flat")
	h, err := core.Compile(s.Source, s.Name, core.LangAuto)
	if err != nil {
		t.Fatal(err)
	}
	vs := h.Variants()
	if vs.Unique() != 1 {
		t.Errorf("ui/flat should have exactly 1 variant, got %d", vs.Unique())
	}
}

func TestMotivatingExample(t *testing.T) {
	s := MotivatingExample()
	if s == nil {
		t.Fatal("missing motivating example")
	}
	h, err := core.Compile(s.Source, s.Name, core.LangAuto)
	if err != nil {
		t.Fatal(err)
	}
	vs := h.Variants()
	if vs.Unique() < 4 {
		t.Errorf("blur/v9 should respond to several flags, got %d variants", vs.Unique())
	}
}

func TestFamilyNames(t *testing.T) {
	names := FamilyNames()
	if len(names) < 14 {
		t.Errorf("families = %d", len(names))
	}
	shaders := MustLoad()
	for _, s := range shaders {
		found := false
		for _, f := range names {
			if s.Family == f {
				found = true
			}
		}
		if !found {
			t.Errorf("%s has unknown family %q", s.Name, s.Family)
		}
	}
}

func TestByName(t *testing.T) {
	shaders := MustLoad()
	if ByName(shaders, "blur/v9") == nil {
		t.Error("blur/v9 missing")
	}
	if ByName(shaders, "nope/nope") != nil {
		t.Error("unexpected hit")
	}
}

// TestCorpusLangAutoDetects: every corpus shader must auto-detect to its
// tagged language, so LangAuto pipelines treat the corpus correctly.
func TestCorpusLangAutoDetects(t *testing.T) {
	for _, s := range MustLoad() {
		if got := core.DetectLang(s.Source); got != s.Lang {
			t.Errorf("%s: detected %v, tagged %v", s.Name, got, s.Lang)
		}
	}
}
