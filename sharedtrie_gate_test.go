package shaderopt

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/telemetry"
)

// twinFamilies returns the übershader twin corpus the cross-shader trie
// gates run over: the GLSL tonemap family and its hand-ported HLSL
// twins, which lower to alpha-equivalent IRs and so exercise every
// sharing tier (exact adoption within a family, no-op adoption and
// rename transport across the frontend boundary). Corpus order puts
// every hlsl/ shader before its tonemap/ twin.
func twinFamilies(t *testing.T) []*corpus.Shader {
	t.Helper()
	var out []*corpus.Shader
	for _, s := range corpus.MustLoad() {
		if strings.HasPrefix(s.Name, "tonemap/") || strings.HasPrefix(s.Name, "hlsl/") {
			out = append(out, s)
		}
	}
	if len(out) < 4 {
		t.Fatalf("twin families missing from corpus: found %d shaders", len(out))
	}
	return out
}

// twinPairs returns the first n tonemap instances, each followed by its
// HLSL twin: a prefix of the corpus would hold only HLSL shaders, none
// of which has a twin to share with.
func twinPairs(t *testing.T, n int) []*corpus.Shader {
	t.Helper()
	all := corpus.MustLoad()
	var out []*corpus.Shader
	for _, s := range twinFamilies(t) {
		inst, ok := strings.CutPrefix(s.Name, "tonemap/")
		if !ok || len(out) == 2*n {
			continue
		}
		twin := corpus.ByName(all, "hlsl/"+inst)
		if twin == nil {
			t.Fatalf("%s has no HLSL twin", s.Name)
		}
		out = append(out, s, twin)
	}
	if len(out) != 2*n {
		t.Fatalf("found %d twin pairs, want %d", len(out)/2, n)
	}
	return out
}

// TestSharedEnumerationMatchesPrivate is the corpus-wide byte-identity
// gate for the cross-shader trie: every shader in the twin families
// (two whole twin pairs under -short, both full families otherwise)
// enumerated through one shared table must produce a variant set
// byte-identical to a private walk — sharing lives strictly at the
// transform level — and the table must actually have answered
// transitions (enum.shared.hits > 0), so the gate cannot pass vacuously
// on a table that never matches.
func TestSharedEnumerationMatchesPrivate(t *testing.T) {
	shaders := twinFamilies(t)
	if testing.Short() {
		shaders = twinPairs(t, 2)
	}
	reg := telemetry.NewRegistry()
	shared := core.NewSharedTrie()
	shared.Instrument(reg.Counter("enum.shared.hits"), reg.Counter("enum.shared.misses"))

	sharedHandles := compileHandles(t, shaders)
	privateHandles := compileHandles(t, shaders)
	for i, h := range sharedHandles {
		got := h.VariantsSharedT(reg, 1, shared)
		want := privateHandles[i].VariantsSharedT(nil, 1, nil)
		if got.Unique() != want.Unique() {
			t.Fatalf("%s: shared walk found %d unique variants, private %d", h.Name, got.Unique(), want.Unique())
		}
		for k, wv := range want.Variants {
			gv := got.Variants[k]
			if gv.Hash != wv.Hash || gv.Source != wv.Source {
				t.Fatalf("%s: variant %d differs between shared and private walks (%s vs %s)",
					h.Name, k, gv.Hash, wv.Hash)
			}
			if len(gv.FlagSets) != len(wv.FlagSets) {
				t.Fatalf("%s: variant %d covers %d flag sets shared, %d private",
					h.Name, k, len(gv.FlagSets), len(wv.FlagSets))
			}
			for fi, fl := range wv.FlagSets {
				if gv.FlagSets[fi] != fl {
					t.Fatalf("%s: variant %d flag set %d = %v shared, %v private",
						h.Name, k, fi, gv.FlagSets[fi], fl)
				}
			}
		}
	}

	hits := reg.Counter("enum.shared.hits").Value()
	misses := reg.Counter("enum.shared.misses").Value()
	if hits == 0 {
		t.Fatalf("enum.shared.hits = 0 across %d twin shaders (misses %d): the table never shared anything",
			len(shaders), misses)
	}
	t.Logf("%d twin shaders: %d shared transitions, %d private (%.1f%% hit rate)",
		len(shaders), hits, misses, 100*float64(hits)/float64(hits+misses))
}

// sharedEnumBaseline mirrors testdata/enum_shared_baseline.json: the
// committed expectations of the cross-shader enumeration gate. The warm
// set seeds the shared table (untimed); the timed set is then enumerated
// shared-vs-private.
type sharedEnumBaseline struct {
	MinSpeedup  float64  `json:"min_speedup"`
	Repeats     int      `json:"repeats"`
	WarmShaders []string `json:"warm_shaders"`
	Shaders     []string `json:"shaders"`
}

// TestSharedEnumerationSpeedupRegression is the cross-shader
// counterpart of TestEnumerationSpeedupRegression: with the shared
// table warmed by the GLSL tonemap family, enumerating the HLSL twin
// family must beat a private enumeration of the same handles by the
// committed factor — the sharing is adoption and transport across the
// frontend boundary, the paper's übershader-family scenario. The
// threshold sits well below the speedup observed when the baseline was
// committed, so the gate trips on real regressions (a table that stops
// matching and silently recomputes everything), not machine noise.
// Timing both paths in one process on the same inputs keeps the
// comparison machine-independent; single-threaded so it measures walk
// structure, not scheduling.
func TestSharedEnumerationSpeedupRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate; runs in the dedicated CI step without -short")
	}
	raw, err := os.ReadFile("testdata/enum_shared_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base sharedEnumBaseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	if base.MinSpeedup <= 1 || len(base.WarmShaders) == 0 || len(base.Shaders) == 0 || base.Repeats < 1 {
		t.Fatalf("implausible baseline: %+v", base)
	}

	all := corpus.MustLoad()
	pick := func(names []string) []*corpus.Shader {
		out := make([]*corpus.Shader, len(names))
		for i, n := range names {
			s := corpus.ByName(all, n)
			if s == nil {
				t.Fatalf("baseline names missing corpus shader %s", n)
			}
			out[i] = s
		}
		return out
	}
	warmSet, timedSet := pick(base.WarmShaders), pick(base.Shaders)

	shared := core.NewSharedTrie()
	for _, h := range compileHandles(t, warmSet) {
		h.VariantsSharedT(nil, 1, shared)
	}

	sharedPass := func() time.Duration {
		handles := compileHandles(t, timedSet)
		start := time.Now()
		for _, h := range handles {
			h.VariantsSharedT(nil, 1, shared)
		}
		return time.Since(start)
	}
	privatePass := func() time.Duration {
		handles := compileHandles(t, timedSet)
		start := time.Now()
		for _, h := range handles {
			h.VariantsSharedT(nil, 1, nil)
		}
		return time.Since(start)
	}

	// Warm both paths once (allocator, templates), then take the fastest
	// of the committed repeat count per path.
	sharedPass()
	privatePass()
	private, sharedD := fastestInterleaved(base.Repeats, privatePass, sharedPass)
	speedup := float64(private) / float64(sharedD)
	t.Logf("private %v, shared %v: %.2fx (gate %.1fx)", private, sharedD, speedup, base.MinSpeedup)
	stepSummary(t, gateSummary("Cross-shader enumeration gate (warm shared trie vs private walk)",
		private, sharedD, speedup, base.MinSpeedup))
	if speedup < base.MinSpeedup {
		t.Fatalf("shared enumeration only %.2fx faster than private on the twin family, below the committed %.1fx gate",
			speedup, base.MinSpeedup)
	}
}
