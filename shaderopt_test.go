package shaderopt

import (
	"math"
	"strings"
	"sync"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/harness"
)

const facadeSrc = `#version 330
uniform sampler2D tex;
uniform vec4 tint;
in vec2 uv;
out vec4 color;
void main() {
    color = texture(tex, uv) * tint * 2.0 + texture(tex, uv) * tint;
}
`

// mustCompile compiles src into a handle or fails the test.
func mustCompile(tb testing.TB, src, name string, opts ...Option) *Shader {
	tb.Helper()
	sh, err := Compile(src, name, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return sh
}

func TestFacadeOptimizeAndMeasure(t *testing.T) {
	sh := mustCompile(t, facadeSrc, "facade")
	out := sh.Optimize(AllFlags)
	if !strings.Contains(out, "#version 330") {
		t.Error("bad output")
	}
	optSh := mustCompile(t, out, "facade-opt")
	cfg := FastProtocol()
	for _, pl := range Platforms() {
		orig, err := sh.Measure(pl, cfg)
		if err != nil {
			t.Fatalf("%s: %v", pl.Vendor, err)
		}
		opt, err := optSh.Measure(pl, cfg)
		if err != nil {
			t.Fatalf("%s: %v", pl.Vendor, err)
		}
		if orig.MedianNS <= 0 || opt.MedianNS <= 0 {
			t.Fatalf("%s: bad measurements", pl.Vendor)
		}
	}
}

func TestFacadeVariants(t *testing.T) {
	if vs := mustCompile(t, facadeSrc, "facade").Variants(); vs.Unique() < 1 {
		t.Error("no variants")
	}
}

func TestFacadeCorpusAndPlatforms(t *testing.T) {
	shaders, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(shaders) < 80 {
		t.Errorf("corpus = %d", len(shaders))
	}
	if len(Platforms()) != 5 {
		t.Error("platforms")
	}
	if PlatformByVendor("NVIDIA") == nil {
		t.Error("lookup")
	}
}

func TestFacadeConvertAndVertex(t *testing.T) {
	es, err := ConvertToES(facadeSrc, "facade")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(es, "#version 300 es") {
		t.Error("not ES")
	}
	vs, err := GenerateVertexShader(facadeSrc)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(vs, "out vec2 uv;") {
		t.Error("vertex shader interface")
	}
}

func TestFacadeSpeedupAndFlags(t *testing.T) {
	if Speedup(200, 100) != 100 {
		t.Error("speedup")
	}
	f, err := ParseFlags("unroll+hoist")
	if err != nil || !f.Has(Unroll) || !f.Has(Hoist) {
		t.Error("parse flags")
	}
}

// TestRenderEquivalence renders a small image before/after full
// optimization and checks visual equivalence within float tolerance —
// the property the offline optimizer must preserve for shipping games.
func TestRenderEquivalence(t *testing.T) {
	src := `#version 330
uniform sampler2D tex;
in vec2 uv;
out vec4 color;
void main() {
    vec4 acc = vec4(0.0);
    for (int i = 0; i < 3; i++) {
        acc += texture(tex, uv * (1.0 + float(i) * 0.1)) / 3.0;
    }
    color = acc * 2.0 * vec4(0.5, 0.6, 0.7, 1.0);
}
`
	sh := mustCompile(t, src, "r")
	before, err := sh.Render(16, 16, NoFlags)
	if err != nil {
		t.Fatal(err)
	}
	after, err := sh.Render(16, 16, AllFlags)
	if err != nil {
		t.Fatal(err)
	}
	for y := range before {
		for x := range before[y] {
			for c := 0; c < 4; c++ {
				if d := math.Abs(before[y][x][c] - after[y][x][c]); d > 1e-6 {
					t.Fatalf("pixel (%d,%d)[%d] differs by %v", x, y, c, d)
				}
			}
		}
	}
}

func TestFacadeSweepSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	shaders, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	handles, err := CompileCorpus(shaders[:3])
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := NewSession(WithProtocol(FastProtocol())).Sweep(handles, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Results) != 3 {
		t.Error("sweep results")
	}
}

// --- WGSL frontend acceptance ---

// wgslFacadeSrc is the WGSL twin of the GLSL luma shader below; the two
// must render pixel-identically through their respective frontends.
const wgslFacadeSrc = `
@group(0) @binding(0) var tex: texture_2d<f32>;
@group(0) @binding(1) var samp: sampler;

@fragment
fn main(@location(0) uv: vec2<f32>) -> @location(0) vec4<f32> {
    let g = dot(textureSample(tex, samp, uv).rgb, vec3<f32>(0.2126, 0.7152, 0.0722));
    return vec4<f32>(vec3<f32>(g), 1.0);
}
`

const glslLumaSrc = `#version 330
out vec4 color;
in vec2 uv;
uniform sampler2D tex;
void main() {
    float g = dot(texture(tex, uv).rgb, vec3(0.2126, 0.7152, 0.0722));
    color = vec4(vec3(g), 1.0);
}
`

func TestFacadeDetectLang(t *testing.T) {
	if l := DetectLang(facadeSrc); l != LangGLSL {
		t.Errorf("GLSL detected as %v", l)
	}
	if l := DetectLang(wgslFacadeSrc); l != LangWGSL {
		t.Errorf("WGSL detected as %v", l)
	}
}

// TestWGSLFullStudyRoundTrip is the end-to-end acceptance path: parse →
// lower to IR → 256 flag combinations enumerated and deduplicated →
// measured on all five platforms.
func TestWGSLFullStudyRoundTrip(t *testing.T) {
	sh := mustCompile(t, wgslFacadeSrc, "wgsl-facade", WithLang(LangWGSL))
	vs := sh.Variants()
	if len(vs.ByFlags) != 256 {
		t.Fatalf("flag mappings = %d, want 256", len(vs.ByFlags))
	}
	if vs.Unique() < 1 || vs.Unique() > 48 {
		t.Fatalf("unique variants = %d", vs.Unique())
	}
	cfg := FastProtocol()
	bestSh := mustCompile(t, vs.VariantFor(AllFlags).Source, "wgsl-facade-best")
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
}

// TestRenderPixelExactAcrossFrontends renders the same shader authored in
// GLSL and in WGSL and requires bit-identical images at NoFlags.
func TestRenderPixelExactAcrossFrontends(t *testing.T) {
	const w, h = 16, 16
	gimg, err := mustCompile(t, glslLumaSrc, "pair-glsl").Render(w, h, NoFlags)
	if err != nil {
		t.Fatal(err)
	}
	wimg, err := mustCompile(t, wgslFacadeSrc, "pair-wgsl").Render(w, h, NoFlags)
	if err != nil {
		t.Fatal(err)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if gimg[y][x] != wimg[y][x] {
				t.Fatalf("pixel (%d,%d): glsl %v != wgsl %v", x, y, gimg[y][x], wimg[y][x])
			}
		}
	}
	// The corpus twins must agree too.
	shaders, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	gs, ws := (*CorpusShader)(nil), (*CorpusShader)(nil)
	for _, s := range shaders {
		switch s.Name {
		case "simple/luma":
			gs = s
		case "wgsl/luma":
			ws = s
		}
	}
	if gs == nil || ws == nil {
		t.Fatal("missing luma corpus twins")
	}
	gimg, err = mustCompile(t, gs.Source, gs.Name).Render(8, 8, NoFlags)
	if err != nil {
		t.Fatal(err)
	}
	wimg, err = mustCompile(t, ws.Source, ws.Name).Render(8, 8, NoFlags)
	if err != nil {
		t.Fatal(err)
	}
	for y := range gimg {
		for x := range gimg[y] {
			if gimg[y][x] != wimg[y][x] {
				t.Fatalf("corpus twins differ at (%d,%d): %v != %v", x, y, gimg[y][x], wimg[y][x])
			}
		}
	}
}

func TestFacadeOptimizeWGSL(t *testing.T) {
	out := mustCompile(t, wgslFacadeSrc, "wgsl-facade", WithLang(LangWGSL)).Optimize(AllFlags)
	if !strings.Contains(out, "void main") {
		t.Errorf("output is not GLSL:\n%s", out)
	}
	es, err := ConvertToES(out, "wgsl-facade")
	if err != nil {
		t.Fatalf("ES conversion of WGSL-sourced GLSL: %v", err)
	}
	if !strings.HasPrefix(es, "#version 300 es") {
		t.Error("not ES output")
	}
}

// --- Compiled-handle API acceptance ---

// TestHandleEquivalentToStringFacade: a handle's products are pure
// functions of its source text. After the handle has memoized its
// variant enumeration, Optimize, Variants, and Render must still match
// a fresh handle per product. ToGLSL and Measure must match the
// string-level pipeline on the source text: core.ToGLSL and
// harness.MeasureSource (identical scores for a fixed seed). Checked
// for both frontends.
func TestHandleEquivalentToStringFacade(t *testing.T) {
	cfg := FastProtocol()
	for _, tc := range []struct {
		name, src string
	}{{"glsl", facadeSrc}, {"wgsl", wgslFacadeSrc}} {
		t.Run(tc.name, func(t *testing.T) {
			sh := mustCompile(t, tc.src, "eq")
			vs := sh.Variants()
			for _, flags := range []Flags{NoFlags, DefaultFlags, AllFlags} {
				if sh.Optimize(flags) != mustCompile(t, tc.src, "eq").Optimize(flags) {
					t.Errorf("flags %v: handle GLSL differs from a fresh handle's", flags)
				}
			}
			if want := mustCompile(t, tc.src, "eq").Variants().Unique(); vs.Unique() != want {
				t.Errorf("unique = %d, want %d", vs.Unique(), want)
			}
			wantGLSL, err := core.ToGLSL(tc.src, "eq", LangAuto)
			if err != nil {
				t.Fatal(err)
			}
			if sh.ToGLSL() != wantGLSL {
				t.Error("ToGLSL differs")
			}
			for _, pl := range Platforms() {
				want, err := harness.MeasureSource(pl, wantGLSL, cfg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sh.Measure(pl, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if got.MedianNS != want.MedianNS || got.MeanNS != want.MeanNS || got.TrueNS != want.TrueNS {
					t.Errorf("%s: handle measurement differs: %v vs %v", pl.Vendor, got.MedianNS, want.MedianNS)
				}
			}
			wantImg, err := mustCompile(t, tc.src, "eq").Render(8, 8, AllFlags)
			if err != nil {
				t.Fatal(err)
			}
			gotImg, err := sh.Render(8, 8, AllFlags)
			if err != nil {
				t.Fatal(err)
			}
			for y := range wantImg {
				for x := range wantImg[y] {
					if gotImg[y][x] != wantImg[y][x] {
						t.Fatalf("pixel (%d,%d) differs", x, y)
					}
				}
			}
		})
	}
}

// TestHandleCompileLangOption: WithLang pins the frontend on Compile and
// sets the session default for Session.Compile.
func TestHandleCompileLangOption(t *testing.T) {
	if _, err := Compile(wgslFacadeSrc, "w", WithLang(LangGLSL)); err == nil {
		t.Error("WGSL source pinned as GLSL should fail to parse")
	}
	sh, err := Compile(wgslFacadeSrc, "w", WithLang(LangWGSL))
	if err != nil {
		t.Fatal(err)
	}
	if sh.Lang() != LangWGSL {
		t.Error("lang not pinned")
	}
	sess := NewSession(WithLang(LangWGSL), WithProtocol(FastProtocol()))
	if _, err := sess.Compile(wgslFacadeSrc, "w"); err != nil {
		t.Fatal(err)
	}
}

// TestSessionConcurrentUse hammers one Session and shared handles from
// many goroutines; run under -race (the CI race job does) to catch
// unsynchronized cache state.
func TestSessionConcurrentUse(t *testing.T) {
	sess := NewSession(WithProtocol(FastProtocol()), WithWorkers(4))
	shA, err := Compile(facadeSrc, "a")
	if err != nil {
		t.Fatal(err)
	}
	shB, err := Compile(wgslFacadeSrc, "b")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweep, err := sess.Sweep([]*Shader{shA, shB}, func(SweepEvent) {})
			if err != nil {
				t.Error(err)
				return
			}
			if len(sweep.Results) != 2 {
				t.Error("bad sweep")
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shA.Variants()
			shB.Variants()
			if _, err := shA.Measure(Platforms()[0], FastProtocol()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	m := sess.Metrics()
	hits, misses := m.Counters["session.measure.hits"], m.Counters["session.measure.misses"]
	if misses == 0 || hits == 0 {
		t.Errorf("cache stats hits=%d misses=%d: expected both non-zero under contention", hits, misses)
	}
}
