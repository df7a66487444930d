package search

import (
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/store"
)

// trieTwinSources are renamed twins: identical structure, every
// identifier spelled differently. They lower to alpha-equivalent IRs, so
// a shared-trie session must answer the second shader's enumeration from
// the first's transitions.
const trieTwinA = `#version 330 core
uniform float gain;
in vec2 uv;
out vec4 fragColor;
void main() {
    float g = gain * uv.x + uv.y;
    float acc = 0.0;
    for (int i = 0; i < 4; i++) { acc = acc + g * float(i); }
    if (acc > 1.0) { acc = acc * 0.5; }
    fragColor = vec4(acc, g, g * acc, 1.0);
}`

const trieTwinB = `#version 330 core
uniform float intensity;
in vec2 texcoord;
out vec4 color_out;
void main() {
    float lum = intensity * texcoord.x + texcoord.y;
    float total = 0.0;
    for (int k = 0; k < 4; k++) { total = total + lum * float(k); }
    if (total > 1.0) { total = total * 0.5; }
    color_out = vec4(total, lum, lum * total, 1.0);
}`

// compileTwins returns fresh handles for the renamed twins (fresh every
// call: handles memoize their variant set, so each session must
// enumerate its own pair).
func compileTwins(t *testing.T) (*core.Shader, *core.Shader) {
	t.Helper()
	ha, err := core.Compile(trieTwinA, "twin/a", core.LangGLSL)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := core.Compile(trieTwinB, "twin/b", core.LangGLSL)
	if err != nil {
		t.Fatal(err)
	}
	if core.FingerprintCanonical(ha.IR()) != core.FingerprintCanonical(hb.IR()) {
		t.Fatal("twins are not alpha-equivalent; test is vacuous")
	}
	if core.FingerprintIR(ha.IR()) == core.FingerprintIR(hb.IR()) {
		t.Fatal("twins share the spelling-sensitive fingerprint; test is vacuous")
	}
	return ha, hb
}

// assertVariantSetsIdentical pins byte identity between two enumerations
// of the same shader: same variants, same order, same sources, same
// flag-set partition.
func assertVariantSetsIdentical(t *testing.T, label string, got, want *core.VariantSet) {
	t.Helper()
	if got.Unique() != want.Unique() {
		t.Fatalf("%s: %d unique variants, want %d", label, got.Unique(), want.Unique())
	}
	for i, wv := range want.Variants {
		gv := got.Variants[i]
		if gv.Hash != wv.Hash || gv.Source != wv.Source {
			t.Fatalf("%s: variant %d differs (%s vs %s)", label, i, gv.Hash, wv.Hash)
		}
		if len(gv.FlagSets) != len(wv.FlagSets) {
			t.Fatalf("%s: variant %d flag-set count %d, want %d", label, i, len(gv.FlagSets), len(wv.FlagSets))
		}
		for k, fl := range wv.FlagSets {
			if gv.FlagSets[k] != fl {
				t.Fatalf("%s: variant %d flag set %d = %v, want %v", label, i, k, gv.FlagSets[k], fl)
			}
		}
	}
}

// TestSharedTrieRenamedTwins is the sharing pin for the cross-shader
// node table: a session enumerating renamed twins must (a) answer part
// of the second walk from the first (enum.shared.hits > 0) and (b)
// produce variant sets and sweep scores byte-identical to fresh handles'
// private walks (Shader.Variants, no table) — sharing lives strictly at
// the transform level.
func TestSharedTrieRenamedTwins(t *testing.T) {
	desktop := gpu.Platforms()[:1]
	sharedSess := NewSession(desktop, Options{Cfg: harness.FastConfig(), Workers: 1})
	privateSess := NewSession(desktop, Options{Cfg: harness.FastConfig(), Workers: 1})
	if sharedSess.SharedTrie() == nil {
		t.Fatal("default session has no shared trie")
	}

	sa, sb := compileTwins(t)
	pa, pb := compileTwins(t)
	// Enumerate the reference handles privately first: the handle memo
	// then serves privateSess's sweep, so its walks never touch a table.
	pvA, pvB := pa.Variants(), pb.Variants()
	sharedSweep, err := sharedSess.Sweep([]*core.Shader{sa, sb}, nil)
	if err != nil {
		t.Fatal(err)
	}
	privateSweep, err := privateSess.Sweep([]*core.Shader{pa, pb}, nil)
	if err != nil {
		t.Fatal(err)
	}

	svA, _ := sharedSess.Variants(sa)
	assertVariantSetsIdentical(t, "twin/a", svA, pvA)
	svB, _ := sharedSess.Variants(sb)
	assertVariantSetsIdentical(t, "twin/b", svB, pvB)

	hits := sharedSess.Telemetry().Counter("enum.shared.hits").Value()
	if hits == 0 {
		t.Error("enum.shared.hits = 0: the twins' walks shared nothing")
	}
	if n := privateSess.Telemetry().Counter("enum.shared.hits").Value(); n != 0 {
		t.Errorf("private session recorded %d shared hits", n)
	}
	if sharedSess.SharedTrie().Len() == 0 {
		t.Error("shared table is empty after two enumerations")
	}

	for i, wr := range privateSweep.Results {
		gr := sharedSweep.Results[i]
		for _, pl := range desktop {
			if gr.OrigNS[pl.Vendor] != wr.OrigNS[pl.Vendor] {
				t.Errorf("%s orig: shared %v != private %v", wr.Name(), gr.OrigNS[pl.Vendor], wr.OrigNS[pl.Vendor])
			}
			for hash, ns := range wr.VariantNS[pl.Vendor] {
				if gr.VariantNS[pl.Vendor][hash] != ns {
					t.Errorf("%s variant %s: shared %v != private %v", wr.Name(), hash, gr.VariantNS[pl.Vendor][hash], ns)
				}
			}
		}
	}
}

// TestSharedTriePersistsAcrossSessions pins the store-backed half: a
// fresh session over a warm store answers no-op transitions from
// persisted nodes (full hits — the pass is skipped) even though no IR
// survives a restart, and the variant sets stay byte-identical.
func TestSharedTriePersistsAcrossSessions(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm := NewSession(gpu.Platforms()[:1], Options{Cfg: harness.FastConfig(), Workers: 1, Store: st1})
	wa, _ := compileTwins(t)
	wv, _ := warm.Variants(wa)
	if err := st1.Sync(); err != nil {
		t.Fatal(err)
	}

	st2, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh session and a fresh handle: the only warmth is the store.
	cold := NewSession(gpu.Platforms()[:1], Options{Cfg: harness.FastConfig(), Workers: 1, Store: st2})
	ca, _ := compileTwins(t)
	cv, _ := cold.Variants(ca)
	assertVariantSetsIdentical(t, "warm-store twin/a", cv, wv)
	if hits := cold.Telemetry().Counter("enum.shared.hits").Value(); hits == 0 {
		t.Error("enum.shared.hits = 0 over a warm store: persisted no-op nodes not consulted")
	}
}
