package gpu

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"shaderopt/internal/crossc"
	"shaderopt/internal/glsl"
	"shaderopt/internal/glslgen"
	"shaderopt/internal/lower"
	"shaderopt/internal/passes"
	"shaderopt/internal/telemetry"
)

const simpleShader = `#version 330
uniform sampler2D tex;
uniform vec4 tint;
in vec2 uv;
out vec4 color;
void main() {
    vec4 base = texture(tex, uv);
    color = base * tint;
}
`

const loopShader = `#version 330
uniform sampler2D tex;
in vec2 uv;
out vec4 color;
void main() {
    vec4 acc = vec4(0.0);
    for (int i = 0; i < 8; i++) {
        acc += texture(tex, uv + vec2(float(i) * 0.01, 0.0)) / 8.0;
    }
    color = acc;
}
`

func TestPlatformsRoster(t *testing.T) {
	ps := Platforms()
	if len(ps) != 5 {
		t.Fatalf("want 5 platforms, got %d", len(ps))
	}
	want := []string{"Intel", "AMD", "NVIDIA", "ARM", "Qualcomm"}
	mobiles := 0
	for i, p := range ps {
		if p.Vendor != want[i] {
			t.Errorf("platform %d = %s, want %s", i, p.Vendor, want[i])
		}
		if p.Mobile {
			mobiles++
		}
		if p.NoiseSigma <= 0 || p.Cost.NSPerFragCycle <= 0 {
			t.Errorf("%s: incomplete config", p.Vendor)
		}
	}
	if mobiles != 2 {
		t.Errorf("want 2 mobile platforms, got %d", mobiles)
	}
	if PlatformByVendor("ARM") == nil || PlatformByVendor("nope") != nil {
		t.Error("PlatformByVendor lookup")
	}
}

func TestCompileSimpleShaderAllPlatforms(t *testing.T) {
	for _, p := range Platforms() {
		c, err := p.CompileSource(simpleShader)
		if err != nil {
			t.Fatalf("%s: %v", p.Vendor, err)
		}
		if c.CyclesPerFragment <= 0 {
			t.Errorf("%s: non-positive cycles", p.Vendor)
		}
		if c.Stats.TextureOps != 1 {
			t.Errorf("%s: texture ops = %v, want 1", p.Vendor, c.Stats.TextureOps)
		}
		if c.DrawNS(250000) <= c.Platform.Cost.DrawOverheadNS {
			t.Errorf("%s: draw time missing fragment cost", p.Vendor)
		}
	}
}

func TestIntelNoiseLowestQualcommHighest(t *testing.T) {
	ps := Platforms()
	intel, qc := ps[0], ps[4]
	for _, p := range ps[1:] {
		if p.NoiseSigma < intel.NoiseSigma {
			t.Errorf("%s noisier constraint: Intel must be cleanest", p.Vendor)
		}
	}
	for _, p := range ps[:4] {
		if p.NoiseSigma > qc.NoiseSigma {
			t.Errorf("Qualcomm must be noisiest, %s exceeds it", p.Vendor)
		}
	}
}

// optimizeSource runs the offline optimizer and regenerates GLSL, like the
// measurement pipeline does.
func optimizeSource(t *testing.T, src string, flags passes.Flags) string {
	t.Helper()
	sh, err := glsl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lower.Lower(sh, "opt")
	if err != nil {
		t.Fatal(err)
	}
	passes.Run(prog, flags)
	return glslgen.Generate(prog, glslgen.Desktop)
}

func TestAMDUnrollAlwaysHelpsLoops(t *testing.T) {
	// AMD's driver does not unroll; offline unrolling must help the looped
	// shader (§VI-D5: "On AMD, loop unrolling always improves performance").
	amd := NewAMD()
	base, err := amd.CompileSource(optimizeSource(t, loopShader, passes.NoFlags))
	if err != nil {
		t.Fatal(err)
	}
	unrolled, err := amd.CompileSource(optimizeSource(t, loopShader, passes.FlagUnroll))
	if err != nil {
		t.Fatal(err)
	}
	if unrolled.CyclesPerFragment >= base.CyclesPerFragment {
		t.Errorf("AMD: unroll did not help: %.1f -> %.1f cycles",
			base.CyclesPerFragment, unrolled.CyclesPerFragment)
	}
}

func TestNVIDIAUnrollNearZero(t *testing.T) {
	// NVIDIA's JIT unrolls this loop itself, so the offline flag should
	// barely matter (§VI-C: large near-zero tails on NVIDIA).
	nv := NewNVIDIA()
	base, err := nv.CompileSource(optimizeSource(t, loopShader, passes.NoFlags))
	if err != nil {
		t.Fatal(err)
	}
	unrolled, err := nv.CompileSource(optimizeSource(t, loopShader, passes.FlagUnroll))
	if err != nil {
		t.Fatal(err)
	}
	rel := (base.CyclesPerFragment - unrolled.CyclesPerFragment) / base.CyclesPerFragment
	if rel > 0.05 || rel < -0.05 {
		t.Errorf("NVIDIA: offline unroll should be near zero, got %.1f%%", rel*100)
	}
}

func TestARMBranchesExpensive(t *testing.T) {
	// The Mali model must charge loops enough that unrolling matters
	// (§VI-D5: ARM peak +25% from unrolling).
	arm := NewARM()
	base, err := arm.CompileSource(optimizeSource(t, loopShader, passes.NoFlags))
	if err != nil {
		t.Fatal(err)
	}
	unrolled, err := arm.CompileSource(optimizeSource(t, loopShader, passes.FlagUnroll|passes.FlagDivToMul))
	if err != nil {
		t.Fatal(err)
	}
	gain := (base.CyclesPerFragment - unrolled.CyclesPerFragment) / base.CyclesPerFragment
	if gain < 0.05 {
		t.Errorf("ARM: unroll gain = %.1f%%, want noticeable", gain*100)
	}
}

func TestQualcommICachePenalty(t *testing.T) {
	// A very large unrolled body must cost Qualcomm's small I-cache
	// (§VI-D5: the -8% unroll case).
	var sb strings.Builder
	sb.WriteString("#version 330\nuniform sampler2D tex;\nin vec2 uv;\nout vec4 color;\nvoid main() {\n    vec4 acc = vec4(0.0);\n")
	sb.WriteString("    for (int i = 0; i < 48; i++) {\n")
	sb.WriteString("        vec4 s = texture(tex, uv + vec2(float(i) * 0.003, float(i) * 0.001));\n")
	sb.WriteString("        acc += s * s.wzyx + sin(s) * 0.25 + cos(s * 2.0) * 0.125;\n")
	sb.WriteString("    }\n    color = acc / 48.0;\n}\n")
	src := sb.String()

	qc := NewQualcomm()
	base, err := qc.CompileSource(optimizeSource(t, src, passes.NoFlags))
	if err != nil {
		t.Fatal(err)
	}
	unrolled, err := qc.CompileSource(optimizeSource(t, src, passes.FlagUnroll))
	if err != nil {
		t.Fatal(err)
	}
	if unrolled.Stats.StaticInstrs <= qc.Cost.ICacheInstrs {
		t.Skipf("unrolled body too small to exercise the i-cache (%d instrs)", unrolled.Stats.StaticInstrs)
	}
	// The i-cache penalty must visibly offset the branch savings.
	gain := (base.CyclesPerFragment - unrolled.CyclesPerFragment) / base.CyclesPerFragment
	if gain > 0.10 {
		t.Errorf("Qualcomm: giant unroll should not be a big win, got +%.1f%%", gain*100)
	}
}

func TestFPReassocHelpsDesktopScalarMachines(t *testing.T) {
	src := `#version 330
uniform vec4 a;
uniform vec4 b;
uniform vec4 fc;
uniform float k1;
uniform float k2;
in vec2 uv;
out vec4 color;
void main() {
    vec4 t1 = a * b * 0.25 + a * fc * 0.25;
    vec4 t2 = k1 * (k2 * t1);
    color = t2 + t1 * 0.25 + t1 * 0.25;
}
`
	for _, p := range []*Platform{NewIntel(), NewQualcomm()} {
		base, err := p.CompileSource(optimizeSource(t, src, passes.NoFlags))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := p.CompileSource(optimizeSource(t, src, passes.FlagFPReassociate))
		if err != nil {
			t.Fatal(err)
		}
		if opt.CyclesPerFragment >= base.CyclesPerFragment {
			t.Errorf("%s: FP reassociation should help scalar machines: %.2f -> %.2f",
				p.Vendor, base.CyclesPerFragment, opt.CyclesPerFragment)
		}
	}
}

func TestDivToMulBigOnQualcommSmallOnIntel(t *testing.T) {
	src := `#version 330
uniform vec4 v;
in vec2 uv;
out vec4 color;
void main() {
    vec4 a = v / 3.0;
    vec4 b = a / 7.0;
    vec4 c = b / 1.7;
    color = a + b + c;
}
`
	intel, qc := NewIntel(), NewQualcomm()
	gain := func(p *Platform) float64 {
		base, err := p.CompileSource(optimizeSource(t, src, passes.NoFlags))
		if err != nil {
			t.Fatal(err)
		}
		opt, err := p.CompileSource(optimizeSource(t, src, passes.FlagDivToMul))
		if err != nil {
			t.Fatal(err)
		}
		return (base.CyclesPerFragment - opt.CyclesPerFragment) / base.CyclesPerFragment
	}
	gi, gq := gain(intel), gain(qc)
	if gi > 0.02 {
		t.Errorf("Intel folds reciprocals itself; offline div-to-mul should be ~0, got %.1f%%", gi*100)
	}
	if gq < 0.03 {
		t.Errorf("Qualcomm should benefit from div-to-mul, got %.1f%%", gq*100)
	}
}

func TestCompileErrorPropagates(t *testing.T) {
	if _, err := NewIntel().CompileSource("not a shader"); err == nil {
		t.Error("want parse error")
	}
	if _, err := NewIntel().CompileSource("void main() { break; }"); err == nil {
		t.Error("want lower error")
	}
}

func TestCycleBreakdownPopulated(t *testing.T) {
	c, err := NewARM().CompileSource(loopShader)
	if err != nil {
		t.Fatal(err)
	}
	if c.Arith <= 0 || c.Texture <= 0 {
		t.Errorf("breakdown: arith=%v tex=%v ls=%v ovh=%v", c.Arith, c.Texture, c.LoadStore, c.Overhead)
	}
	if c.CyclesPerFragment < c.Arith {
		t.Error("total must cover the arithmetic pipe")
	}
}

// TestCompileSpansSplitReingest checks that a traced compile on a
// translating platform records its re-ingestion as a "reingest <format>"
// span of its own next to the vendor passes' "compile <vendor>" span,
// and that a GLSL-ingesting platform records no reingest span.
func TestCompileSpansSplitReingest(t *testing.T) {
	for _, pl := range Platforms() {
		prog, err := FrontEnd(simpleShader, "test")
		if err != nil {
			t.Fatal(err)
		}
		passes.Canonicalize(prog)
		reg := telemetry.NewRegistry()
		tr := telemetry.NewTracer()
		reg.SetTracer(tr)
		if _, err := pl.CompileCanonicalT(reg, prog); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := tr.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct{ Name string } `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, ev := range doc.TraceEvents {
			names = append(names, ev.Name)
		}
		want := []string{"compile " + pl.Vendor}
		if !pl.CompilesInPlace() {
			want = []string{"reingest " + pl.Ingest, "compile " + pl.Vendor}
		}
		if !slices.Equal(names, want) {
			t.Errorf("%s: spans %q, want %q", pl.Vendor, names, want)
		}
	}
}

// TestUntracedCompileSpansAllocateNothing: with a nil registry, or one
// with no tracer attached, the compile and reingest spans build no name
// and allocate nothing.
func TestUntracedCompileSpansAllocateNothing(t *testing.T) {
	for _, reg := range []*telemetry.Registry{nil, telemetry.NewRegistry()} {
		if n := testing.AllocsPerRun(100, func() {
			startSpan(reg, "reingest ", crossc.IngestSPIRV).End()
			startSpan(reg, "compile ", "AMD").End()
		}); n != 0 {
			t.Errorf("untraced spans (registry %v) allocate %v times per run, want 0", reg, n)
		}
	}
}
