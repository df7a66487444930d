package shaderopt

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/search"
	"shaderopt/internal/telemetry"
)

// stepSummary appends a markdown fragment to the file named by
// $GITHUB_STEP_SUMMARY when running under GitHub Actions, so the
// benchmark gates' measured speedups surface on the workflow run page
// without digging through logs. A no-op everywhere else.
func stepSummary(t *testing.T, markdown string) {
	t.Helper()
	path := os.Getenv("GITHUB_STEP_SUMMARY")
	if path == "" {
		return
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Logf("step summary: %v", err)
		return
	}
	defer f.Close()
	fmt.Fprint(f, markdown)
}

// gateSummary renders one benchmark gate's result as the markdown table
// the CI run page shows: measured speedup vs the committed baseline.
func gateSummary(gate string, legacy, fast time.Duration, speedup, committed float64) string {
	return fmt.Sprintf(
		"### %s\n\n| legacy | optimized | speedup | committed gate |\n|---|---|---|---|\n| %v | %v | %.2fx | %.1fx |\n\n",
		gate, legacy, fast, speedup, committed)
}

// cacheSummary renders the session caches' traffic from a telemetry
// snapshot as the markdown table the benchmark-gate step summary shows
// next to the speedup numbers: how much of the batched pipeline's win
// came from each cache.
func cacheSummary(snap *telemetry.Snapshot) string {
	var sb strings.Builder
	sb.WriteString("### Session cache hit rates (batched sweep)\n\n| cache | hits | misses | hit rate |\n|---|---|---|---|\n")
	for _, name := range []string{"enum", "lowered", "compile", "scores", "store"} {
		hits := snap.Counters["cache."+name+".hits"]
		misses := snap.Counters["cache."+name+".misses"]
		rate := 0.0
		if hits+misses > 0 {
			rate = 100 * float64(hits) / float64(hits+misses)
		}
		fmt.Fprintf(&sb, "| %s | %d | %d | %.1f%% |\n", name, hits, misses, rate)
	}
	sb.WriteString("\n")
	return sb.String()
}

// TestCacheSummaryTable pins the hit-rate table's shape and arithmetic.
func TestCacheSummaryTable(t *testing.T) {
	snap := &telemetry.Snapshot{Counters: map[string]int64{
		"cache.compile.hits":   30,
		"cache.compile.misses": 10,
	}}
	got := cacheSummary(snap)
	for _, want := range []string{"| cache | hits | misses | hit rate |", "| compile | 30 | 10 | 75.0% |", "| enum | 0 | 0 | 0.0% |"} {
		if !strings.Contains(got, want) {
			t.Errorf("cache summary missing %q:\n%s", want, got)
		}
	}
}

// TestStepSummaryWritesMarkdown pins the GitHub Actions plumbing: the
// helper appends (not truncates) to $GITHUB_STEP_SUMMARY and stays a
// no-op when the variable is unset.
func TestStepSummaryWritesMarkdown(t *testing.T) {
	path := t.TempDir() + "/summary.md"
	if err := os.WriteFile(path, []byte("existing\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Setenv("GITHUB_STEP_SUMMARY", path)
	stepSummary(t, gateSummary("Test gate", 2*time.Second, time.Second, 2.0, 1.5))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := string(data)
	for _, want := range []string{"existing\n", "### Test gate", "| 2s | 1s | 2.00x | 1.5x |"} {
		if !strings.Contains(got, want) {
			t.Errorf("summary missing %q:\n%s", want, got)
		}
	}
	t.Setenv("GITHUB_STEP_SUMMARY", "")
	stepSummary(t, "must not be written anywhere")
}

// enumBaseline mirrors testdata/enum_baseline.json: the committed
// expectations of the enumeration benchmark-regression gate.
type enumBaseline struct {
	MinSpeedup float64  `json:"min_speedup"`
	Shaders    []string `json:"shaders"`
	Repeats    int      `json:"repeats"`
}

// TestEnumerationSpeedupRegression is the CI benchmark-regression gate:
// it times the legacy clone-per-combination enumeration against the
// trie-memoized path on the committed shader list and fails if the
// memoized path does not beat the legacy path by the committed
// min_speedup factor. The threshold (2×) sits far below the speedup
// observed when the baseline was committed (~17×), so the gate trips on
// real regressions — a memoization break that silently falls back to
// per-combination work — not on machine noise. Timing both paths in one
// process on the same inputs keeps the comparison machine-independent.
func TestEnumerationSpeedupRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate; runs in the dedicated CI step without -short")
	}
	raw, err := os.ReadFile("testdata/enum_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base enumBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	if base.MinSpeedup <= 1 || len(base.Shaders) == 0 || base.Repeats < 1 {
		t.Fatalf("implausible baseline: %+v", base)
	}

	all := corpus.MustLoad()
	var shaders []*corpus.Shader
	for _, n := range base.Shaders {
		s := corpus.ByName(all, n)
		if s == nil {
			t.Fatalf("baseline names missing corpus shader %s", n)
		}
		shaders = append(shaders, s)
	}

	compile := func(s *corpus.Shader) *core.Shader {
		h, err := core.Compile(s.Source, s.Name, s.Lang)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	legacyPass := func() {
		for _, s := range shaders {
			compile(s).LegacyVariants()
		}
	}
	memoPass := func() {
		for _, s := range shaders {
			compile(s).VariantsSharedT(nil, 1, nil)
		}
	}

	// Warm both paths once (corpus templates, allocator), then take the
	// fastest of the committed repeat count per path.
	legacyPass()
	memoPass()
	best := func(pass func()) time.Duration {
		min := time.Duration(0)
		for i := 0; i < base.Repeats; i++ {
			start := time.Now()
			pass()
			if d := time.Since(start); min == 0 || d < min {
				min = d
			}
		}
		return min
	}
	legacy, memo := best(legacyPass), best(memoPass)
	speedup := float64(legacy) / float64(memo)
	t.Logf("legacy %v, memoized %v: %.1fx (gate %.1fx)", legacy, memo, speedup, base.MinSpeedup)
	stepSummary(t, gateSummary("Enumeration benchmark gate (memoized trie vs legacy)",
		legacy, memo, speedup, base.MinSpeedup))
	if speedup < base.MinSpeedup {
		t.Fatalf("memoized enumeration only %.2fx faster than legacy, below the committed %.1fx gate",
			speedup, base.MinSpeedup)
	}
}

// TestHarnessSpeedupRegression is the measurement-pipeline counterpart of
// the enumeration gate: it times a cold sweep — fresh session, every
// driver compile and every sample paid — through the batched,
// compile-memoized pipeline (Session.Sweep) against the legacy
// per-variant pipeline (Session.SweepLegacy, an independent
// harness.MeasureSource per variant × platform) on the committed shader
// list, and fails if the batched path does not win by the committed
// min_speedup factor. Scores are byte-identical between the two paths
// (the harness-equivalence suite pins that corpus-wide); this gate pins
// that the batching, the (vendor, IR fingerprint) compile cache, and the
// shared front end keep actually paying for themselves. Variant
// enumeration is hoisted into setup — it is identical in both paths and
// gated separately by TestEnumerationSpeedupRegression. Timing both
// paths in one process on the same inputs keeps the comparison
// machine-independent; single-threaded so it measures pipeline
// structure, not scheduling.
func TestHarnessSpeedupRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate; runs in the dedicated CI step without -short")
	}
	raw, err := os.ReadFile("testdata/harness_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base enumBaseline // same schema as the enumeration baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	if base.MinSpeedup <= 1 || len(base.Shaders) == 0 || base.Repeats < 1 {
		t.Fatalf("implausible baseline: %+v", base)
	}

	all := corpus.MustLoad()
	var shaders []*corpus.Shader
	for _, n := range base.Shaders {
		s := corpus.ByName(all, n)
		if s == nil {
			t.Fatalf("baseline names missing corpus shader %s", n)
		}
		shaders = append(shaders, s)
	}
	compileAll := func() []*core.Shader {
		handles := make([]*core.Shader, len(shaders))
		for i, s := range shaders {
			h, err := core.Compile(s.Source, s.Name, s.Lang)
			if err != nil {
				t.Fatal(err)
			}
			h.Variants() // hoist enumeration: both pipelines share it
			handles[i] = h
		}
		return handles
	}

	// lastBatched keeps the final batched pass's session so its registry
	// snapshot can feed the step summary's cache hit-rate table.
	var lastBatched *search.Session
	run := func(legacy bool) time.Duration {
		// Fresh handles and a fresh session per pass: the sweep itself is
		// cold, but handle compilation and enumeration stay outside the
		// timed window — they are identical in both pipelines.
		handles := compileAll()
		sess := search.NewSession(gpu.Platforms(), search.Options{Cfg: harness.FastConfig(), Workers: 1})
		if !legacy {
			lastBatched = sess
		}
		start := time.Now()
		var err error
		if legacy {
			_, err = sess.SweepLegacy(handles, nil)
		} else {
			_, err = sess.Sweep(handles, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}

	// Warm both paths once (corpus templates, allocator), then take the
	// fastest of the committed repeat count per path.
	run(true)
	run(false)
	legacy, batched := fastestInterleaved(base.Repeats,
		func() time.Duration { return run(true) },
		func() time.Duration { return run(false) })
	speedup := float64(legacy) / float64(batched)
	t.Logf("legacy %v, batched %v: %.2fx (gate %.1fx)", legacy, batched, speedup, base.MinSpeedup)
	stepSummary(t, gateSummary("Harness benchmark gate (batched sweep vs per-variant legacy)",
		legacy, batched, speedup, base.MinSpeedup))
	stepSummary(t, cacheSummary(lastBatched.Metrics()))
	if speedup < base.MinSpeedup {
		t.Fatalf("batched measurement pipeline only %.2fx faster than per-variant legacy, below the committed %.1fx gate",
			speedup, base.MinSpeedup)
	}
}

// fastestInterleaved times two passes repeats times each and returns each
// one's fastest reading; a pass reports its own timed window. The repeats
// alternate the two passes, so load that drifts while a gate runs slows
// both sides alike instead of only the side timed during it. Collection
// stays on: a pipeline's allocation is part of its cost.
func fastestInterleaved(repeats int, a, b func() time.Duration) (time.Duration, time.Duration) {
	var minA, minB time.Duration
	for i := 0; i < repeats; i++ {
		if d := a(); minA == 0 || d < minA {
			minA = d
		}
		if d := b(); minB == 0 || d < minB {
			minB = d
		}
	}
	return minA, minB
}
