package shaderopt

import (
	"fmt"
	"math"
	"testing"

	"shaderopt/internal/corpus"
	"shaderopt/internal/crossc"
)

// The differential-equivalence suite is the metamorphic oracle guarding
// every pass and enumeration change: optimization must never change what
// a shader computes. For every corpus shader (GLSL and WGSL) and every
// enumerated variant, the variant's generated source is re-parsed from
// text — the exact bytes a driver would receive — rendered through the
// reference interpreter, and compared pixel-by-pixel against the
// unoptimized shader; and every variant must be accepted by all five
// platform driver compilers (mobile ones through the GLES conversion).
//
// Tolerance: the all-off baseline and most variants match bit-for-bit.
// Two flags are documented exceptions that reorder floating point:
// fp-reassociate (the paper's custom unsafe pass) and div-to-mul
// (x/c → x*(1/c), a 1-ulp-per-operation rounding change). Their variants
// may drift by accumulated rounding, so the suite allows a small absolute
// per-channel epsilon on [0,1]-scale color output — far below the 1/255
// quantization of an 8-bit render target — and requires exact equality
// for variants whose flag sets never enable either FP pass.
const (
	diffEpsilon = 1e-6
	diffW       = 8
	diffH       = 8
)

// diffCorpus returns the shaders under differential test: a
// behaviour-diverse subset in -short mode (every pass family and all
// three languages represented), the full corpus otherwise — the full
// sweep is wired into CI as its own step.
func diffCorpus(t *testing.T) []*corpus.Shader {
	t.Helper()
	all, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !testing.Short() {
		return all
	}
	names := []string{
		"blur/v9", "godrays/s32", "pbr/l4_spec_full", "tonemap/filmic_full",
		"fxaa/hq", "relief/basic", "alu/d3", "water/full", "ui/flat",
		"wgsl/ripple", "wgsl/glow",
		"hlsl/filmic_full", "hlsl/reinhard_ext",
	}
	var out []*corpus.Shader
	for _, n := range names {
		s := corpus.ByName(all, n)
		if s == nil {
			t.Fatalf("missing corpus shader %s", n)
		}
		out = append(out, s)
	}
	return out
}

// usesUnsafeFP reports whether any flag set producing this variant
// enables a floating-point-reordering pass.
func usesUnsafeFP(v *Variant) bool {
	for _, fs := range v.FlagSets {
		if fs.Has(FPReassociate) || fs.Has(DivToMul) {
			return true
		}
	}
	return false
}

// maxPixelDelta returns the largest per-channel absolute difference
// between two rendered images.
func maxPixelDelta(a, b [][][4]float64) float64 {
	max := 0.0
	for y := range a {
		for x := range a[y] {
			for c := 0; c < 4; c++ {
				if d := math.Abs(a[y][x][c] - b[y][x][c]); d > max {
					max = d
				}
			}
		}
	}
	return max
}

// TestDifferentialEquivalence renders every enumerated variant of every
// corpus shader from its generated source text and compares it against
// the unoptimized original, then pushes each variant through all five
// platform driver compilers.
func TestDifferentialEquivalence(t *testing.T) {
	platforms := Platforms()
	for _, s := range diffCorpus(t) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			h, err := Compile(s.Source, s.Name, WithLang(s.Lang))
			if err != nil {
				t.Fatal(err)
			}
			baseline, err := h.Render(diffW, diffH, NoFlags)
			if err != nil {
				t.Fatalf("baseline render: %v", err)
			}
			for _, v := range h.Variants().Variants {
				// Re-parse the variant from its generated text — the bytes
				// a driver would see — not from the in-memory IR, so the
				// comparison also covers codegen faithfulness.
				vh, err := Compile(v.Source, fmt.Sprintf("%s@%s", s.Name, v.Hash))
				if err != nil {
					t.Fatalf("variant %s (flags %v) failed to re-parse: %v", v.Hash, v.Canonical(), err)
				}
				img, err := vh.Render(diffW, diffH, NoFlags)
				if err != nil {
					t.Fatalf("variant %s (flags %v) failed to render: %v", v.Hash, v.Canonical(), err)
				}
				delta := maxPixelDelta(baseline, img)
				tol := 0.0
				if usesUnsafeFP(v) {
					tol = diffEpsilon
				}
				if delta > tol {
					t.Errorf("variant %s (flags %v) diverges from original: max channel delta %g > %g",
						v.Hash, v.Canonical(), delta, tol)
				}

				// Every platform's driver must accept every variant.
				for _, pl := range platforms {
					eff := v.Source
					if pl.Mobile {
						if eff, err = crossc.ToES(v.Source, s.Name); err != nil {
							t.Fatalf("variant %s: GLES conversion: %v", v.Hash, err)
						}
					}
					if _, err := pl.CompileSource(eff); err != nil {
						t.Errorf("variant %s rejected by %s driver: %v", v.Hash, pl.Vendor, err)
					}
				}
			}
		})
	}
}
