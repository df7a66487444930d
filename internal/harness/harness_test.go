package harness

import (
	"reflect"
	"strings"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/exec"
	"shaderopt/internal/gpu"
)

const testSrc = `#version 330
uniform sampler2D tex;
uniform vec4 tint;
uniform mat3 xform;
in vec2 uv;
in vec3 bary;
out vec4 color;
void main() {
    vec3 p = xform * bary;
    color = texture(tex, uv) * tint + vec4(p, 0.0);
}
`

func TestMeasureSourceAllPlatforms(t *testing.T) {
	cfg := FastConfig()
	for _, pl := range gpu.Platforms() {
		m, err := MeasureSource(pl, testSrc, cfg)
		if err != nil {
			t.Fatalf("%s: %v", pl.Vendor, err)
		}
		if len(m.Samples) != cfg.Frames*cfg.Repeats {
			t.Errorf("%s: %d samples, want %d", pl.Vendor, len(m.Samples), cfg.Frames*cfg.Repeats)
		}
		if m.MedianNS <= 0 || m.MeanNS <= 0 || m.MinNS <= 0 {
			t.Errorf("%s: non-positive aggregates %+v", pl.Vendor, m)
		}
		if m.MinNS > m.MedianNS || m.MedianNS > m.Samples[0]*10 {
			t.Errorf("%s: implausible aggregates", pl.Vendor)
		}
	}
}

func TestMeasureDeterministicAcrossOrder(t *testing.T) {
	cfg := FastConfig()
	pl := gpu.NewIntel()
	a, err := MeasureSource(pl, testSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Measure something else in between; the seed derivation must make
	// results order-independent.
	if _, err := MeasureSource(pl, "#version 330\nout vec4 c;\nvoid main() { c = vec4(1.0); }", cfg); err != nil {
		t.Fatal(err)
	}
	b, err := MeasureSource(pl, testSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.MedianNS != b.MedianNS {
		t.Error("measurement depends on order")
	}
}

func TestMobileUsesConversionAndFewerDraws(t *testing.T) {
	cfg := FastConfig()
	arm := gpu.NewARM()
	intel := gpu.NewIntel()
	ma, err := MeasureSource(arm, testSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mi, err := MeasureSource(intel, testSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Mobile runs 100 draws/frame vs 1000 — true time ratio reflects that.
	if ma.TrueNS <= 0 || mi.TrueNS <= 0 {
		t.Fatal("missing true times")
	}
}

func TestNoiseMagnitudeTracksPlatform(t *testing.T) {
	cfg := DefaultConfig()
	intel, qc := gpu.NewIntel(), gpu.NewQualcomm()
	mi, err := MeasureSource(intel, testSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mq, err := MeasureSource(qc, testSrc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	relI := mi.StdDevNS / mi.MeanNS
	relQ := mq.StdDevNS / mq.MeanNS
	if relI >= relQ {
		t.Errorf("Intel rel noise %.4f should be below Qualcomm %.4f", relI, relQ)
	}
}

func TestSpeedup(t *testing.T) {
	if s := Speedup(200, 100); s != 100 {
		t.Errorf("2x faster = %v%%, want 100%%", s)
	}
	if s := Speedup(100, 200); s != -50 {
		t.Errorf("2x slower = %v%%, want -50%%", s)
	}
	if Speedup(100, 0) != 0 {
		t.Error("zero variant time guarded")
	}
}

func TestGenerateVertexShader(t *testing.T) {
	vs, err := GenerateVertexShader(testSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"#version 330", "out vec2 uv;", "out vec3 bary;", "uniform float u_depth;", "gl_Position"} {
		if !strings.Contains(vs, want) {
			t.Errorf("vertex shader missing %q:\n%s", want, vs)
		}
	}
}

func TestDefaultEnvInitialization(t *testing.T) {
	h, err := core.Compile(testSrc, "env", core.LangAuto)
	if err != nil {
		t.Fatal(err)
	}
	prog := h.IR()
	env := DefaultEnv(prog)
	if env.Uniforms["tint"] == nil || !env.Uniforms["tint"].IsSplat() || env.Uniforms["tint"].F[0] != 0.5 {
		t.Errorf("tint default = %v, want 0.5 splat", env.Uniforms["tint"])
	}
	m := env.Uniforms["xform"]
	if m == nil || m.F[0] != 1 || m.F[1] != 0 || m.F[4] != 1 {
		t.Errorf("matrix default should be identity: %v", m)
	}
	if env.Samplers["tex"] == nil {
		t.Error("sampler default missing")
	}
	if env.Inputs["uv"] == nil || env.Inputs["bary"] == nil {
		t.Error("input defaults missing")
	}
	// The default env must actually run.
	if _, err := exec.Run(prog, env); err != nil {
		t.Fatalf("default env does not execute: %v", err)
	}
}

func TestMeasureErrorOnBadSource(t *testing.T) {
	if _, err := MeasureSource(gpu.NewIntel(), "garbage(", FastConfig()); err == nil {
		t.Error("want error")
	}
	if _, err := MeasureSource(gpu.NewARM(), "garbage(", FastConfig()); err == nil {
		t.Error("want error on mobile path too")
	}
}

func TestConfigs(t *testing.T) {
	d := DefaultConfig()
	if d.Fragments != 250000 || d.DesktopDraws != 1000 || d.MobileDraws != 100 || d.Frames != 100 || d.Repeats != 5 {
		t.Errorf("default config = %+v does not match the paper's protocol", d)
	}
	f := FastConfig()
	if f.Frames >= d.Frames {
		t.Error("fast config should reduce frames")
	}
}

// TestSeedPrefixMatchesDeriveSeed pins the hand-rolled FNV prefix the
// batch path hoists: completing a seedPrefix state with any source text
// must equal the reference deriveSeed for every (vendor, source, base).
func TestSeedPrefixMatchesDeriveSeed(t *testing.T) {
	vendors := []string{"", "Intel", "AMD", "NVIDIA", "ARM", "Qualcomm", "a\x00b"}
	sources := []string{"", "x", "void main() {}", strings.Repeat("s", 1000), "nul\x00embedded"}
	bases := []int64{0, 1, -1, 42, 1 << 40}
	for _, v := range vendors {
		prefix := seedPrefix(v)
		for _, src := range sources {
			for _, base := range bases {
				if got, want := seedFrom(base, prefix, src), deriveSeed(base, v, src); got != want {
					t.Fatalf("seedFrom(%d, prefix(%q), %q) = %d, deriveSeed = %d", base, v, src, got, want)
				}
			}
		}
	}
}

// TestMeasureBatchEdgeCases pins batch behaviour at the boundaries: an
// empty batch returns nil, and a zero-sample protocol produces the same
// nil-sample Measurement the per-variant path does.
func TestMeasureBatchEdgeCases(t *testing.T) {
	pl := gpu.NewIntel()
	if got := MeasureBatch(pl, nil, DefaultConfig()); got != nil {
		t.Fatalf("empty batch returned %v", got)
	}
	compiled, err := pl.CompileSource("#version 330\nout vec4 c;\nvoid main() { c = vec4(1.0); }")
	if err != nil {
		t.Fatal(err)
	}
	cfg := FastConfig()
	cfg.Repeats = 0
	batch := MeasureBatch(pl, []BatchItem{{Compiled: compiled, SrcForSeed: "s"}}, cfg)
	legacy := MeasureCompiled(pl, compiled, "s", cfg)
	if batch[0].Samples != nil || legacy.Samples != nil {
		t.Fatalf("zero-sample protocol should leave Samples nil: batch %v, legacy %v", batch[0].Samples, legacy.Samples)
	}
	if !reflect.DeepEqual(batch[0], legacy) {
		t.Fatalf("zero-sample measurements differ: batch %+v, legacy %+v", *batch[0], *legacy)
	}
}
