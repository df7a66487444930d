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
//   - Session.Sweep vs oracle.Sweep: every score of the batched,
//     compile-memoized, platform-grouped sweep identical to independent
//     harness.MeasureSource calls, invariant under worker count, shader
//     order, and cache hit/miss order, and every swept shader's score
//     bits equal to its line in the benchmark's score golden.
//
// -short runs a fixed cross-frontend subset (also exercised by the CI
// race job); CI runs the full corpus in a dedicated step.

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/crossc"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/oracle"
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

// compileHandles compiles fresh handles (fresh every call: a handle
// memoizes its variant set, so each enumeration pass needs its own).
func compileHandles(tb testing.TB, shaders []*corpus.Shader) []*core.Shader {
	tb.Helper()
	handles := make([]*core.Shader, len(shaders))
	for i, s := range shaders {
		h, err := core.Compile(s.Source, s.Name, s.Lang)
		if err != nil {
			tb.Fatalf("%s: %v", s.Name, err)
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

// scoreKeys flattens one shader's scores into comparable
// "orig/vendor" and "vendor/hash" keys.
func scoreKeys(origNS map[string]float64, variantNS map[string]map[string]float64) map[string]float64 {
	m := map[string]float64{}
	for vendor, ns := range origNS {
		m["orig/"+vendor] = ns
	}
	for vendor, per := range variantNS {
		for hash, ns := range per {
			m[vendor+"/"+hash] = ns
		}
	}
	return m
}

// sweepScores flattens a sweep into comparable (shader, vendor, key) →
// score maps.
func sweepScores(sw *search.Sweep) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for _, r := range sw.Results {
		out[r.Name()] = scoreKeys(r.OrigNS, r.VariantNS)
	}
	return out
}

// sweepHandles runs the batched pipeline over a fresh session.
func sweepHandles(tb testing.TB, handles []*core.Shader, workers int) *search.Sweep {
	tb.Helper()
	sess := search.NewSession(gpu.Platforms(), search.Options{Cfg: harness.FastConfig(), Workers: workers})
	sw, err := sess.Sweep(handles, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return sw
}

// oracleScores runs the per-variant reference sweep, flattened like
// sweepScores.
func oracleScores(t *testing.T, handles []*core.Shader) map[string]map[string]float64 {
	t.Helper()
	results, err := oracle.Sweep(handles, gpu.Platforms(), harness.FastConfig())
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]float64{}
	for _, r := range results {
		out[r.Name] = scoreKeys(r.OrigNS, r.VariantNS)
	}
	return out
}

// TestSweepBatchedMatchesLegacy is the session-level oracle: the batched,
// compile-memoized, platform-grouped Sweep must score every original and
// every distinct variant of every corpus shader identically to the
// per-variant reference pipeline (oracle.Sweep: independent
// harness.MeasureSource calls), and the result must be invariant under
// worker count, shader order, and cache hit/miss order (a second sweep on
// the same warm session serves everything from cache and must not change
// a single score). Every swept shader's unique-variant count and score
// digest must also match its line in the benchmark's score golden, so
// tier-1 and the benchmark pin the same score bits.
func TestSweepBatchedMatchesLegacy(t *testing.T) {
	shaders := equivShaders(t)
	handles := compileHandles(t, shaders)

	legacy := oracleScores(t, handles)
	batchedSweep := sweepHandles(t, handles, 1)
	batched := sweepScores(batchedSweep)
	if !reflect.DeepEqual(legacy, batched) {
		reportScoreDiff(t, "batched vs legacy", legacy, batched)
	}
	checkScoresGolden(t, batchedSweep.Results)

	// Worker invariance: the platform batches and the shader fan-out must
	// not let scheduling touch a score.
	if got := sweepScores(sweepHandles(t, handles, 5)); !reflect.DeepEqual(legacy, got) {
		reportScoreDiff(t, "workers=5 vs legacy", legacy, got)
	}

	// Order invariance: sweeping the corpus reversed changes which shader
	// populates the shared caches first; scores must not move.
	reversed := make([]*core.Shader, len(handles))
	for i, h := range handles {
		reversed[len(handles)-1-i] = h
	}
	if got := sweepScores(sweepHandles(t, reversed, 3)); !reflect.DeepEqual(legacy, got) {
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

// scoresGoldenPath is the benchmark's full-corpus score golden, read in
// place: one "name unique digest" line per corpus shader at the fast
// protocol on all five platforms.
const scoresGoldenPath = "bench/shaderbench/testdata/scores.golden"

// checkScoresGolden compares each result's unique-variant count and score
// digest with its line in the score golden.
func checkScoresGolden(t *testing.T, results []*search.ShaderResult) {
	t.Helper()
	f, err := os.Open(scoresGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	type entry struct {
		unique int
		digest string
	}
	want := map[string]entry{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 || strings.HasPrefix(fields[0], "#") {
			continue // header, blank, or the report-digest line
		}
		unique, err := strconv.Atoi(fields[1])
		if err != nil {
			t.Fatalf("%s: %q: %v", scoresGoldenPath, sc.Text(), err)
		}
		want[fields[0]] = entry{unique, fields[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		w, ok := want[r.Name()]
		if !ok {
			t.Errorf("%s: no line in %s", r.Name(), scoresGoldenPath)
			continue
		}
		if unique, digest := scoreDigest(r); unique != w.unique || digest != w.digest {
			t.Errorf("%s: %d unique variants, score digest %s; golden has %d, %s",
				r.Name(), unique, digest, w.unique, w.digest)
		}
	}
}

// scoreDigest returns a result's unique-variant count and the sha256 of
// its sorted "vendor hash bits" tuples (hash "orig" for the baseline,
// bits the score's float64 bits in %016x): the score golden's format.
func scoreDigest(r *search.ShaderResult) (int, string) {
	var tuples []string
	distinct := map[string]bool{}
	for vendor, ns := range r.OrigNS {
		tuples = append(tuples, fmt.Sprintf("%s orig %016x", vendor, math.Float64bits(ns)))
	}
	for vendor, per := range r.VariantNS {
		for hash, ns := range per {
			distinct[hash] = true
			tuples = append(tuples, fmt.Sprintf("%s %s %016x", vendor, hash, math.Float64bits(ns)))
		}
	}
	sort.Strings(tuples)
	sum := sha256.Sum256([]byte(strings.Join(tuples, "\n")))
	return len(distinct), hex.EncodeToString(sum[:])
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
