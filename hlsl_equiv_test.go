package shaderopt

import (
	"testing"

	"shaderopt/internal/corpus"
	"shaderopt/internal/passes"
)

// --- HLSL frontend acceptance ---

// hlslFacadeSrc is the HLSL twin of the GLSL luma shader in
// shaderopt_test.go; the two must render pixel-identically through their
// respective frontends.
const hlslFacadeSrc = `
Texture2D tex : register(t0);
SamplerState smp : register(s0);

float4 main(float2 uv : TEXCOORD0) : SV_Target {
    float g = dot(tex.Sample(smp, uv).rgb, float3(0.2126, 0.7152, 0.0722));
    return float4(g, g, g, 1.0);
}
`

func TestFacadeDetectHLSL(t *testing.T) {
	if l := DetectLang(hlslFacadeSrc); l != LangHLSL {
		t.Errorf("HLSL detected as %v", l)
	}
	sh, err := Compile(hlslFacadeSrc, "hlsl-auto")
	if err != nil {
		t.Fatal(err)
	}
	if sh.Lang() != LangHLSL {
		t.Errorf("auto-compiled Lang = %v", sh.Lang())
	}
	if _, err := Compile(hlslFacadeSrc, "h", WithLang(LangGLSL)); err == nil {
		t.Error("HLSL source pinned as GLSL should fail to parse")
	}
}

// TestHLSLFullStudyRoundTrip is the end-to-end acceptance path for the
// third frontend: parse → lower to IR → 256 flag combinations enumerated
// and deduplicated → measured on all five platforms.
func TestHLSLFullStudyRoundTrip(t *testing.T) {
	sh := mustCompile(t, hlslFacadeSrc, "hlsl-facade", WithLang(LangHLSL))
	vs := sh.Variants()
	if len(vs.ByFlags) != 256 {
		t.Fatalf("flag mappings = %d, want 256", len(vs.ByFlags))
	}
	if vs.Unique() < 1 || vs.Unique() > 48 {
		t.Fatalf("unique variants = %d", vs.Unique())
	}
	cfg := FastProtocol()
	bestSh := mustCompile(t, vs.VariantFor(AllFlags).Source, "hlsl-facade-best")
	for _, pl := range Platforms() {
		orig, err := sh.Measure(pl, cfg)
		if err != nil {
			t.Fatalf("%s: %v", pl.Vendor, err)
		}
		best, err := bestSh.Measure(pl, cfg)
		if err != nil {
			t.Fatalf("%s: %v", pl.Vendor, err)
		}
		if orig.MedianNS <= 0 || best.MedianNS <= 0 {
			t.Fatalf("%s: bad measurements", pl.Vendor)
		}
	}
	if err := OptimizedESAccepted(vs.VariantFor(AllFlags).Source); err != nil {
		t.Fatalf("best HLSL variant rejected by the mobile path: %v", err)
	}
}

// OptimizedESAccepted pushes generated source through the GLES conversion
// — the mobile half of the pipeline the HLSL translation must survive.
func OptimizedESAccepted(src string) error {
	_, err := ConvertToES(src, "hlsl-es")
	return err
}

// variantFingerprint canonically labels a shader's 256-entry flag→variant
// partition: entry i is the variant index (in order of first appearance
// over ascending flag value) that flag combination i maps to. Two shaders
// have equal fingerprints exactly when the flags partition their variant
// spaces identically — a language-independent signature of how the eight
// passes interact with the program's structure.
func variantFingerprint(t *testing.T, src, name string, lang Lang) []int {
	t.Helper()
	sh, err := Compile(src, name, WithLang(lang))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	vs := sh.Variants()
	index := map[string]int{}
	for i, v := range vs.Variants {
		index[v.Hash] = i
	}
	out := make([]int, 0, 256)
	for _, flags := range passes.AllCombinations() {
		out = append(out, index[vs.VariantFor(flags).Hash])
	}
	return out
}

// TestHLSLFamilyVariantFingerprints is the cross-language equivalence
// gate for the corpus port: every hlsl/<instance> is a hand-specialized
// port of tonemap/<instance>, so the eight flags must partition its 256
// combinations into exactly the same variant structure — same unique
// count, same flag→variant mapping — as the GLSL original. A divergence
// means the HLSL frontend changed the optimizable shape of the program,
// which would make cross-language flag-effectiveness comparisons
// meaningless.
func TestHLSLFamilyVariantFingerprints(t *testing.T) {
	all, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	instances := []string{
		"reinhard", "reinhard_ext", "filmic",
		"reinhard_gamma", "filmic_gamma", "filmic_full",
	}
	for _, inst := range instances {
		inst := inst
		t.Run(inst, func(t *testing.T) {
			src := corpus.ByName(all, "tonemap/"+inst)
			port := corpus.ByName(all, "hlsl/"+inst)
			if src == nil || port == nil {
				t.Fatalf("missing corpus twin for %s", inst)
			}
			gfp := variantFingerprint(t, src.Source, src.Name, src.Lang)
			hfp := variantFingerprint(t, port.Source, port.Name, port.Lang)
			if len(gfp) != len(hfp) {
				t.Fatalf("fingerprint lengths differ: %d vs %d", len(gfp), len(hfp))
			}
			for i := range gfp {
				if gfp[i] != hfp[i] {
					t.Fatalf("flag combination %d maps to variant %d in GLSL but %d in HLSL",
						i, gfp[i], hfp[i])
				}
			}
		})
	}
}

// TestHLSLCorpusTwinsRenderIdentically renders each hlsl/<instance>
// against its tonemap/<instance> source and requires bit-identical
// images at NoFlags: the port must compute exactly the same function,
// not just have the same optimization structure.
func TestHLSLCorpusTwinsRenderIdentically(t *testing.T) {
	all, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, inst := range []string{"reinhard", "reinhard_ext", "filmic", "reinhard_gamma", "filmic_gamma", "filmic_full"} {
		src := corpus.ByName(all, "tonemap/"+inst)
		port := corpus.ByName(all, "hlsl/"+inst)
		if src == nil || port == nil {
			t.Fatalf("missing corpus twin for %s", inst)
		}
		gimg, err := mustCompile(t, src.Source, src.Name).Render(8, 8, NoFlags)
		if err != nil {
			t.Fatal(err)
		}
		himg, err := mustCompile(t, port.Source, port.Name).Render(8, 8, NoFlags)
		if err != nil {
			t.Fatal(err)
		}
		for y := range gimg {
			for x := range gimg[y] {
				if gimg[y][x] != himg[y][x] {
					t.Fatalf("%s: pixel (%d,%d): glsl %v != hlsl %v", inst, x, y, gimg[y][x], himg[y][x])
				}
			}
		}
	}
}
