package shaderopt

import (
	"strings"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/telemetry"
)

// twinFamilies returns the übershader twin corpus the cross-shader trie
// gate runs over: the GLSL tonemap family and its hand-ported HLSL
// twins, which lower to alpha-equivalent IRs and so share their no-op
// transitions, within a family and across the frontend boundary. Corpus
// order puts every hlsl/ shader before its tonemap/ twin.
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
// gate for the cross-shader no-op table: every shader in the twin
// families (two whole twin pairs under -short, both full families
// otherwise) enumerated through one shared table must produce a variant
// set byte-identical to a private walk — a no-op the table answers
// skips the pass, nothing else — and the table must actually have
// answered transitions (enum.shared.hits > 0), so the gate cannot pass
// vacuously on a table that never matches.
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
