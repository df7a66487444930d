package main

import (
	"flag"
	"math"
	"os"
	"testing"
	"time"

	"shaderopt/internal/harness"
	"shaderopt/internal/search"
	"shaderopt/internal/sweepd"
)

var update = flag.Bool("update", false, "rewrite testdata/scores.golden from a full-corpus study")

// TestGolden regenerates the score golden with -update; otherwise, outside
// -short, it checks a full-corpus study still matches it.
func TestGolden(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("full-corpus study")
	}
	shaders, _, err := loadShaders(runConfig{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := runStudy(shaders, search.Options{Cfg: harness.FastConfig()}, false)
	if err != nil {
		t.Fatal(err)
	}
	got := formatGolden(scoresOf(out.results), out.report)
	if *update {
		if err := os.WriteFile("testdata/scores.golden", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got != goldenText {
		t.Fatal("the full-corpus study differs from testdata/scores.golden")
	}
}

// smokeSubset is three cheap shaders from three families and three
// languages; the GLSL and HLSL tonemaps are twins, so the shared trie hits.
var smokeSubset = []string{"tonemap/reinhard_gamma", "hlsl/reinhard_gamma", "wgsl/luma"}

// smokeConfig is a small run: the subset, one study op, twenty daemon
// requests.
func smokeConfig(t *testing.T, w workload) runConfig {
	ops := 1
	if w.daemon {
		ops = 20
	}
	return runConfig{workload: w, seed: 7, window: 10 * time.Second, maxOps: ops, subset: smokeSubset, workdir: t.TempDir()}
}

// TestSmoke runs every workload untraced and traced on a subset and checks
// that each prints every metric BENCHMARK.json names, with its unit, and
// that no op failed.
func TestSmoke(t *testing.T) {
	spec, err := readSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			for trace, want := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
				cfg := smokeConfig(t, w)
				var r *result
				var err error
				if trace == 1 {
					r, err = runTraced(cfg)
				} else {
					r, err = run(cfg)
				}
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("trace %d: correct %v, %d of %d ops failed: %v", trace, r.Correct, r.Failed, r.Attempted, r.notes)
				}
				if len(r.Metrics) != len(want) {
					t.Errorf("trace %d: %d metrics printed, BENCHMARK.json names %d", trace, len(r.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := r.Metrics[m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace %d: metric %s printed as %+v, want unit %s", trace, m.Name, got, m.Unit)
					}
				}
				if trace == 1 && r.Metrics["trace.score_mismatches"].Value != 0 {
					t.Errorf("the replay's scores differ from the reference op")
				}
			}
		})
	}
}

// TestOneFlippedBitFailsOneShader flips one score bit and checks the
// golden checker counts exactly that shader as failed.
func TestOneFlippedBitFailsOneShader(t *testing.T) {
	shaders, _, err := loadShaders(runConfig{seed: 1, subset: smokeSubset})
	if err != nil {
		t.Fatal(err)
	}
	out, err := runStudy(shaders, search.Options{Cfg: harness.FastConfig()}, false)
	if err != nil {
		t.Fatal(err)
	}
	gold, err := parseGolden(goldenText)
	if err != nil {
		t.Fatal(err)
	}
	scores := scoresOf(out.results)
	if bad := gold.failedShaders(scores); len(bad) != 0 {
		t.Fatalf("unmodified scores fail: %v", bad)
	}
	victim := scores[1]
	flipped := sweepd.ShaderScores{Name: victim.Name, Orig: victim.Orig, Variants: map[string]map[string]float64{}}
	for vendor, m := range victim.Variants {
		flipped.Variants[vendor] = map[string]float64{}
		for hash, ns := range m {
			flipped.Variants[vendor][hash] = ns
		}
	}
	for hash, ns := range flipped.Variants["ARM"] {
		flipped.Variants["ARM"][hash] = math.Float64frombits(math.Float64bits(ns) ^ 1)
		break
	}
	scores[1] = flipped
	if bad := gold.failedShaders(scores); len(bad) != 1 || bad[0] != victim.Name {
		t.Fatalf("failed shaders %v, want exactly [%s]", bad, victim.Name)
	}
}

// TestJudge pins the comparison verdicts on synthetic runs.
func TestJudge(t *testing.T) {
	lower := specMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	steady := func(base float64) []float64 {
		xs := make([]float64, 10)
		for i := range xs {
			xs[i] = base + float64(i%3)
		}
		return xs
	}
	noisy := []float64{100, 60, 140, 80, 120, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name   string
		p, c   []float64
		metric specMetric
		want   string
	}{
		{"faster", steady(100), steady(80), lower, "improved"},
		{"same", steady(100), steady(100), lower, "unchanged"},
		{"slower", steady(100), steady(120), lower, "regressed"},
		{"noisy parent", noisy, steady(101), lower, "unresolved (parent spread exceeds the bound)"},
		{"too few pairs", steady(100)[:5], steady(80)[:5], lower, "unresolved (5 pairs, need 10)"},
		{"higher is better", steady(100), steady(80), specMetric{Better: "higher", Bound: 0.1}, "regressed"},
	} {
		if got := judge(tc.p, tc.c, tc.metric, true).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
