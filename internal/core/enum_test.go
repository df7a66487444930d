package core_test

import (
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
)

// enumCorpus returns the shaders the enumeration equivalence tests run
// over: a behaviour-diverse subset in -short mode, the full corpus (both
// languages) otherwise.
func enumCorpus(t *testing.T) []*corpus.Shader {
	t.Helper()
	all, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	if !testing.Short() {
		return all
	}
	names := []string{
		"blur/v9", "godrays/s32", "pbr/l2_spec", "tonemap/filmic_full",
		"alu/d3", "ui/flat", "wgsl/ripple", "projtex/compose",
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

// assertVariantSetsEqual pins byte-identical enumeration results: same
// variants in the same order, same sources, same hashes, and the same
// flag-combination → variant mapping.
func assertVariantSetsEqual(t *testing.T, name string, want, got *core.VariantSet) {
	t.Helper()
	if got.Unique() != want.Unique() {
		t.Fatalf("%s: unique variants = %d, want %d", name, got.Unique(), want.Unique())
	}
	for i, wv := range want.Variants {
		gv := got.Variants[i]
		if gv.Hash != wv.Hash {
			t.Fatalf("%s: variant %d hash = %s, want %s", name, i, gv.Hash, wv.Hash)
		}
		if gv.Source != wv.Source {
			t.Fatalf("%s: variant %d source differs from reference", name, i)
		}
		if len(gv.FlagSets) != len(wv.FlagSets) {
			t.Fatalf("%s: variant %d has %d flag sets, want %d", name, i, len(gv.FlagSets), len(wv.FlagSets))
		}
		for j, fs := range wv.FlagSets {
			if gv.FlagSets[j] != fs {
				t.Fatalf("%s: variant %d flag set %d = %v, want %v", name, i, j, gv.FlagSets[j], fs)
			}
		}
	}
	for flags, wv := range want.ByFlags {
		if got.ByFlags[flags] == nil || got.ByFlags[flags].Hash != wv.Hash {
			t.Fatalf("%s: flags %v map to wrong variant", name, flags)
		}
	}
}

// TestMemoizedEnumerationMatchesLegacy is the tentpole's correctness pin:
// for every corpus shader (GLSL and WGSL), the trie-memoized enumeration
// produces byte-identical variants — sources, hashes, ordering, and
// flag-set attribution — to the clone-per-combination reference path.
func TestMemoizedEnumerationMatchesLegacy(t *testing.T) {
	for _, s := range enumCorpus(t) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			h, err := core.Compile(s.Source, s.Name, s.Lang)
			if err != nil {
				t.Fatal(err)
			}
			legacy := h.LegacyVariants()
			memo := h.Variants()
			assertVariantSetsEqual(t, s.Name, legacy, memo)
		})
	}
}

// TestEnumerationWorkerInvariance pins scheduling independence: sharding
// the trie walk across many workers yields byte-identical results to the
// inline walk.
func TestEnumerationWorkerInvariance(t *testing.T) {
	for _, s := range enumCorpus(t) {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			h1, err := core.Compile(s.Source, s.Name, s.Lang)
			if err != nil {
				t.Fatal(err)
			}
			h8, err := core.Compile(s.Source, s.Name, s.Lang)
			if err != nil {
				t.Fatal(err)
			}
			assertVariantSetsEqual(t, s.Name, h1.Variants(), h8.VariantsSharedT(nil, 8, nil))
		})
	}
}

// TestVariantsSharesHandleCache checks that the worker count does not
// fragment the handle cache: whichever enumeration runs first is the one
// every later call returns.
func TestVariantsSharesHandleCache(t *testing.T) {
	all, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	s := corpus.ByName(all, "blur/v9")
	h, err := core.Compile(s.Source, s.Name, s.Lang)
	if err != nil {
		t.Fatal(err)
	}
	first := h.VariantsSharedT(nil, 4, nil)
	if h.Variants() != first || h.VariantsSharedT(nil, 1, nil) != first {
		t.Fatal("enumerations at different worker counts not shared through the handle cache")
	}
}
