package shaderopt

// Harness-equivalence suite: the batched, compile-memoized measurement
// pipeline must be indistinguishable — byte for byte — from the legacy
// per-variant pipeline it replaced.
//
// Three layers, matching the three tentpole changes:
//
//   - harness.MeasureBatch vs harness.MeasureCompiled: every Measurement
//     field (samples included) identical for every corpus variant on all
//     five platforms, so the hoisted seed derivation, the reused noise
//     generator, the sample slab, and the shared summary scratch are
//     pinned sample-for-sample.
//   - gpu.CompileCanonical vs gpu.Compile on canonical input: the
//     idempotence assumption the session compile path rests on.
//   - Session.Sweep vs Session.SweepLegacy: every score of the batched,
//     compile-memoized, platform-grouped sweep identical to independent
//     harness.MeasureSource calls, invariant under worker count, shader
//     order, and cache hit/miss order.
//
// -short runs a fixed cross-frontend subset (also exercised by the CI
// race job); CI runs the full corpus in a dedicated step.

import (
	"reflect"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/crossc"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/passes"
	"shaderopt/internal/search"
)

// equivShortNames is the -short subset: loop shaders, an übershader
// instance, trivial shaders, and the translated frontends (WGSL and
// HLSL, whose baselines share the all-flags-off variant — the
// measurement-cache edge case).
var equivShortNames = []string{
	"blur/v9", "pbr/l2_spec", "tonemap/filmic_full", "ui/flat",
	"wgsl/ripple", "wgsl/luma",
	"hlsl/filmic_full", "hlsl/reinhard_ext",
}

func equivShaders(t *testing.T) []*corpus.Shader {
	t.Helper()
	all := corpus.MustLoad()
	if !testing.Short() {
		return all
	}
	var out []*corpus.Shader
	for _, n := range equivShortNames {
		s := corpus.ByName(all, n)
		if s == nil {
			t.Fatalf("missing corpus shader %s", n)
		}
		out = append(out, s)
	}
	return out
}

func equivHandles(t *testing.T, shaders []*corpus.Shader) []*core.Shader {
	t.Helper()
	handles := make([]*core.Shader, len(shaders))
	for i, s := range shaders {
		h, err := core.Compile(s.Source, s.Name, s.Lang)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		handles[i] = h
	}
	return handles
}

// TestMeasureBatchMatchesPerVariant pins the harness layer: one
// MeasureBatch pass over a whole batch must produce Measurements whose
// every field equals an independent MeasureCompiled call per item — same
// samples in the same order, same aggregates — for every corpus variant
// on all five platforms. Batch composition mixes all of a shader's
// variants, so the reused generator crosses variant boundaries the way a
// sweep drives it.
func TestMeasureBatchMatchesPerVariant(t *testing.T) {
	cfg := harness.FastConfig()
	for _, s := range equivShaders(t) {
		h, err := core.Compile(s.Source, s.Name, s.Lang)
		if err != nil {
			t.Fatal(err)
		}
		vs := h.Variants()
		texts := []string{vs.VariantFor(core.NoFlags).Source}
		if h.Lang == core.LangGLSL {
			texts[0] = s.Source
		}
		for _, v := range vs.Variants {
			texts = append(texts, v.Source)
		}
		for _, pl := range gpu.Platforms() {
			items := make([]harness.BatchItem, 0, len(texts))
			legacy := make([]*harness.Measurement, 0, len(texts))
			for _, src := range texts {
				eff := src
				if pl.Mobile {
					eff, err = crossc.ToES(src, s.Name)
					if err != nil {
						t.Fatalf("%s on %s: %v", s.Name, pl.Vendor, err)
					}
				}
				compiled, err := pl.CompileSource(eff)
				if err != nil {
					t.Fatalf("%s on %s: %v", s.Name, pl.Vendor, err)
				}
				items = append(items, harness.BatchItem{Compiled: compiled, SrcForSeed: src})
				legacy = append(legacy, harness.MeasureCompiled(pl, compiled, src, cfg))
			}
			batched := harness.MeasureBatch(pl, items, cfg)
			if len(batched) != len(legacy) {
				t.Fatalf("%s on %s: batch returned %d measurements for %d items",
					s.Name, pl.Vendor, len(batched), len(legacy))
			}
			for i := range batched {
				if !reflect.DeepEqual(batched[i], legacy[i]) {
					t.Fatalf("%s on %s item %d: batched measurement differs from per-variant\nbatched: %+v\nlegacy:  %+v",
						s.Name, pl.Vendor, i, batched[i], legacy[i])
				}
			}
		}
	}
}

// TestCompileCanonicalMatchesCompile pins the idempotence assumption the
// session compile path rests on: for a program already at the driver
// front end's canonicalization fixed point, skipping the pipeline's
// opening canonicalization (CompileCanonical) must produce a Compiled
// identical in every field to the full Compile.
func TestCompileCanonicalMatchesCompile(t *testing.T) {
	for _, s := range equivShaders(t) {
		h, err := core.Compile(s.Source, s.Name, s.Lang)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range h.Variants().Variants {
			canonical, err := gpu.FrontEnd(v.Source, s.Name)
			if err != nil {
				t.Fatal(err)
			}
			passes.Canonicalize(canonical)
			for _, pl := range gpu.Platforms() {
				full, err := pl.Compile(canonical.Clone())
				if err != nil {
					t.Fatal(err)
				}
				skip := pl.CompileCanonical(canonical.Clone())
				if !reflect.DeepEqual(full, skip) {
					t.Fatalf("%s variant %s on %s: CompileCanonical differs from Compile\nfull: %+v\nskip: %+v",
						s.Name, v.Hash, pl.Vendor, full, skip)
				}
			}
		}
	}
}

// sweepScores flattens a sweep into comparable (shader, vendor, key) →
// score maps.
func sweepScores(sw *search.Sweep) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, r := range sw.Results {
		m := map[string]float64{}
		for vendor, ns := range r.OrigNS {
			m["orig/"+vendor] = ns
		}
		for vendor, per := range r.VariantNS {
			for hash, ns := range per {
				m[vendor+"/"+hash] = ns
			}
		}
		out[r.Name()] = m
	}
	return out
}

func equivSweep(t *testing.T, handles []*core.Shader, workers int, legacy bool) map[string]map[string]float64 {
	t.Helper()
	sess := search.NewSession(gpu.Platforms(), search.Options{Cfg: harness.FastConfig(), Workers: workers})
	var sw *search.Sweep
	var err error
	if legacy {
		sw, err = sess.SweepLegacy(handles, nil)
	} else {
		sw, err = sess.Sweep(handles, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	return sweepScores(sw)
}

// TestSweepBatchedMatchesLegacy is the session-level oracle: the batched,
// compile-memoized, platform-grouped Sweep must score every original and
// every distinct variant of every corpus shader identically to the
// per-variant legacy pipeline (independent harness.MeasureSource calls),
// and the result must be invariant under worker count, shader order, and
// cache hit/miss order (a second sweep on the same warm session serves
// everything from cache and must not change a single score).
func TestSweepBatchedMatchesLegacy(t *testing.T) {
	shaders := equivShaders(t)
	handles := equivHandles(t, shaders)

	legacy := equivSweep(t, handles, 1, true)
	batched := equivSweep(t, handles, 1, false)
	if !reflect.DeepEqual(legacy, batched) {
		reportScoreDiff(t, "batched vs legacy", legacy, batched)
	}

	// Worker invariance: the platform batches and the shader fan-out must
	// not let scheduling touch a score.
	if got := equivSweep(t, handles, 5, false); !reflect.DeepEqual(legacy, got) {
		reportScoreDiff(t, "workers=5 vs legacy", legacy, got)
	}

	// Order invariance: sweeping the corpus reversed changes which shader
	// populates the shared caches first; scores must not move.
	reversed := make([]*core.Shader, len(handles))
	for i, h := range handles {
		reversed[len(handles)-1-i] = h
	}
	if got := equivSweep(t, reversed, 3, false); !reflect.DeepEqual(legacy, got) {
		reportScoreDiff(t, "reversed order vs legacy", legacy, got)
	}

	// Cache hit/miss order invariance: a warm re-sweep serves every score
	// from the session cache.
	sess := search.NewSession(gpu.Platforms(), search.Options{Cfg: harness.FastConfig(), Workers: 2})
	first, err := sess.Sweep(handles, nil)
	if err != nil {
		t.Fatal(err)
	}
	second, err := sess.Sweep(handles, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sweepScores(first), sweepScores(second)) {
		t.Fatal("warm re-sweep on the same session changed scores")
	}
	m := sess.Metrics()
	hits, misses := m.Counters["session.measure.hits"], m.Counters["session.measure.misses"]
	if hits == 0 || misses == 0 {
		t.Fatalf("warm re-sweep should mix cache hits and misses, got hits=%d misses=%d", hits, misses)
	}
}

func reportScoreDiff(t *testing.T, label string, want, got map[string]map[string]float64) {
	t.Helper()
	for shader, wm := range want {
		gm := got[shader]
		if gm == nil {
			t.Fatalf("%s: shader %s missing", label, shader)
		}
		for key, w := range wm {
			if g, ok := gm[key]; !ok || g != w {
				t.Fatalf("%s: %s %s: want %v, got %v", label, shader, key, w, gm[key])
			}
		}
	}
	t.Fatalf("%s: score maps differ in shape", label)
}
