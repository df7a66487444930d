// Package harness is the paper's shader measurement framework (§IV-B): it
// isolates a fragment shader in its own context, auto-generates a matching
// vertex shader from the fragment inputs, initializes every uniform to a
// default via introspection (0.5 for floats, a colourfully-patterned
// texture for samplers), renders repeated full-screen draws front-to-back,
// and times them with (simulated) GL_TIME_ELAPSED queries over 100 frames
// × 5 repeats.
package harness

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strings"
	"time"

	"shaderopt/internal/crossc"
	"shaderopt/internal/exec"
	"shaderopt/internal/glsl"
	"shaderopt/internal/gpu"
	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
	"shaderopt/internal/telemetry"
	"shaderopt/internal/timer"
)

// Config mirrors the paper's measurement protocol.
type Config struct {
	// Fragments per draw: full-screen triangles clipped to 500×500 quads.
	Fragments int
	// DrawsPerFrame: 1000 on desktop, 100 on mobile.
	DesktopDraws int
	MobileDraws  int
	// Frames per run and runs per variant.
	Frames  int
	Repeats int
	// Seed namespaces the deterministic noise streams.
	Seed int64
}

// DefaultConfig is the paper's protocol.
func DefaultConfig() Config {
	return Config{
		Fragments:    500 * 500,
		DesktopDraws: 1000,
		MobileDraws:  100,
		Frames:       100,
		Repeats:      5,
		Seed:         1,
	}
}

// FastConfig trades sample count for speed in tests and large sweeps; the
// noise aggregation behaves the same way, just with fewer samples.
func FastConfig() Config {
	c := DefaultConfig()
	c.Frames = 20
	c.Repeats = 3
	return c
}

// Measurement summarizes the frame samples for one shader variant on one
// platform.
type Measurement struct {
	Platform string
	// TrueNS is the noise-free model time per frame (for calibration
	// tests; the paper could not observe this).
	TrueNS float64
	// Samples are measured frame times (Frames × Repeats of them).
	Samples []float64
	// MedianNS/MeanNS/MinNS/StdDevNS aggregate the samples.
	MedianNS float64
	MeanNS   float64
	MinNS    float64
	StdDevNS float64
}

// Score is the robust statistic used for comparisons (median of frame
// times, like the paper's aggregation of noisy timer queries).
func (m *Measurement) Score() float64 { return m.MedianNS }

// MeasureSource compiles desktop GLSL on the platform (converting to GLES
// first on mobile, §III-C(d)) and measures it under the
// protocol. The noise stream is seeded from (seed, platform, source hash):
// measurement order never affects results.
func MeasureSource(pl *gpu.Platform, src string, cfg Config) (*Measurement, error) {
	effective := src
	if pl.Mobile {
		es, err := crossc.ToES(src, "mobile")
		if err != nil {
			return nil, fmt.Errorf("mobile conversion: %w", err)
		}
		effective = es
	}
	compiled, err := pl.CompileSource(effective)
	if err != nil {
		return nil, err
	}
	return MeasureCompiled(pl, compiled, src, cfg), nil
}

// MeasureProgram measures an already-lowered program, skipping the driver
// GLSL front end on desktop platforms: the vendor pipeline consumes the
// program directly. Mobile platforms still receive the converted ES text
// through their own front end, exactly as MeasureSource does, because the
// paper's pipeline is textual past the conversion. srcForSeed must be the
// driver-visible source text so the noise stream matches MeasureSource.
//
// When prog is the lowering of srcForSeed, the result is identical to
// MeasureSource(pl, srcForSeed, cfg); for generated text whose re-parse
// would pick up interchange artefacts, measure the text instead. The
// driver pipeline transforms prog in place — pass a clone if it is shared.
func MeasureProgram(pl *gpu.Platform, prog *ir.Program, srcForSeed string, cfg Config) (*Measurement, error) {
	var compiled *gpu.Compiled
	if pl.Mobile {
		es, err := crossc.ESFromIR(prog, "mobile")
		if err != nil {
			return nil, fmt.Errorf("mobile conversion: %w", err)
		}
		compiled, err = pl.CompileSource(es)
		if err != nil {
			return nil, err
		}
	} else {
		var err error
		compiled, err = pl.Compile(prog)
		if err != nil {
			return nil, err
		}
	}
	return MeasureCompiled(pl, compiled, srcForSeed, cfg), nil
}

// MeasureCompiled runs the timing protocol on an already-compiled shader.
// It is the per-variant reference path: every call derives its seed, sets
// up its noise stream, and allocates its sample and summary storage from
// scratch. Batch sweeps use MeasureBatch, which hoists that per-variant
// setup out of the inner loop; the two are field-identical (pinned by
// TestMeasureBatchMatchesPerVariant).
func MeasureCompiled(pl *gpu.Platform, compiled *gpu.Compiled, srcForSeed string, cfg Config) *Measurement {
	draws := cfg.DesktopDraws
	if pl.Mobile {
		draws = cfg.MobileDraws
	}
	trueFrame := compiled.DrawNS(cfg.Fragments) * float64(draws)

	q := timer.New(pl.NoiseSigma, pl.OverheadNS*float64(draws), pl.ResolutionNS, deriveSeed(cfg.Seed, pl.Vendor, srcForSeed))
	m := &Measurement{Platform: pl.Vendor, TrueNS: trueFrame}
	for rep := 0; rep < cfg.Repeats; rep++ {
		for f := 0; f < cfg.Frames; f++ {
			m.Samples = append(m.Samples, q.Measure(trueFrame))
		}
	}
	summarize(m)
	return m
}

// BatchItem is one compiled shader variant scheduled for measurement on a
// platform.
type BatchItem struct {
	// Compiled is the driver-compiled shader. It must have been compiled
	// by the platform the batch runs on (its cost model sets the modelled
	// frame time).
	Compiled *gpu.Compiled
	// SrcForSeed is the driver-visible desktop source text that namespaces
	// the variant's noise stream — the same text MeasureSource and
	// MeasureCompiled would hash, so batch membership never changes a
	// sample.
	SrcForSeed string
}

// MeasureBatch runs the timing protocol on a whole batch of compiled
// variants for one platform in a single pass. The per-variant setup that
// MeasureCompiled repeats — draw-count selection, the platform part of the
// seed derivation, noise-generator construction, and sample/summary
// allocation — is hoisted out of the Frames×Repeats inner loop: one seed
// prefix, one reseeded generator, one sample slab, and one sort scratch
// buffer serve the entire batch.
//
// Results are field-identical to calling MeasureCompiled once per item:
// every variant's noise stream is seeded independently from (protocol
// seed, vendor, source), so batch order and batch composition cannot
// affect any sample. The equivalence is pinned corpus-wide by
// TestMeasureBatchMatchesPerVariant.
func MeasureBatch(pl *gpu.Platform, items []BatchItem, cfg Config) []*Measurement {
	return MeasureBatchT(nil, pl, items, cfg)
}

// MeasureBatchT is MeasureBatch with a telemetry registry threaded in:
// the batch records a "measure <vendor>" span carrying the batch size,
// the harness.batches / harness.batch.items / harness.samples counters,
// and the wall-clock duration of the whole sample loop in the
// harness.sample_loop histogram. A nil registry records nothing; the
// noise streams (and so every sample) are untouched either way.
func MeasureBatchT(reg *telemetry.Registry, pl *gpu.Platform, items []BatchItem, cfg Config) []*Measurement {
	if len(items) == 0 {
		return nil
	}
	if reg != nil {
		span := reg.StartSpan("measure "+pl.Vendor, "harness").Arg("batch", len(items))
		start := time.Now()
		defer func() {
			reg.Histogram("harness.sample_loop").Observe(time.Since(start))
			span.End()
		}()
		reg.Counter("harness.batches").Inc()
		reg.Counter("harness.batch.items").Add(int64(len(items)))
		if cfg.Frames > 0 && cfg.Repeats > 0 {
			reg.Counter("harness.samples").Add(int64(len(items) * cfg.Frames * cfg.Repeats))
		}
	}
	draws := cfg.DesktopDraws
	if pl.Mobile {
		draws = cfg.MobileDraws
	}
	overheadNS := pl.OverheadNS * float64(draws)
	prefix := seedPrefix(pl.Vendor)

	samples := 0
	if cfg.Frames > 0 && cfg.Repeats > 0 {
		samples = cfg.Frames * cfg.Repeats
	}
	// One backing slab for every variant's samples and one shared sort
	// scratch; each Measurement gets a full-capacity sub-slice so later
	// appends by callers cannot alias a neighbour.
	slab := make([]float64, len(items)*samples)
	scratch := make([]float64, samples)
	q := timer.New(pl.NoiseSigma, overheadNS, pl.ResolutionNS, 0)

	out := make([]*Measurement, len(items))
	for i, it := range items {
		trueFrame := it.Compiled.DrawNS(cfg.Fragments) * float64(draws)
		m := &Measurement{Platform: pl.Vendor, TrueNS: trueFrame}
		if samples > 0 {
			q.Reseed(seedFrom(cfg.Seed, prefix, it.SrcForSeed))
			buf := slab[i*samples : (i+1)*samples : (i+1)*samples]
			for s := range buf {
				buf[s] = q.Measure(trueFrame)
			}
			m.Samples = buf
			summarizeInto(m, scratch)
		}
		out[i] = m
	}
	return out
}

func summarize(m *Measurement) {
	n := len(m.Samples)
	if n == 0 {
		return
	}
	summarizeInto(m, make([]float64, n))
}

// summarizeInto aggregates m.Samples using scratch (len >= len(m.Samples))
// as the sort buffer, so batch runs reuse one buffer across variants. The
// statistics are computed over the sorted copy in the same order as the
// original per-variant summarize, keeping every float operation — and so
// every Measurement field — bit-identical between the two paths.
func summarizeInto(m *Measurement, scratch []float64) {
	n := len(m.Samples)
	if n == 0 {
		return
	}
	sorted := scratch[:n]
	copy(sorted, m.Samples)
	sort.Float64s(sorted)
	m.MinNS = sorted[0]
	if n%2 == 1 {
		m.MedianNS = sorted[n/2]
	} else {
		m.MedianNS = (sorted[n/2-1] + sorted[n/2]) / 2
	}
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	m.MeanNS = sum / float64(n)
	varAcc := 0.0
	for _, v := range sorted {
		d := v - m.MeanNS
		varAcc += d * d
	}
	m.StdDevNS = math.Sqrt(varAcc / float64(n))
}

func deriveSeed(base int64, parts ...string) int64 {
	h := fnv.New64a()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return base ^ int64(h.Sum64())
}

// FNV-1a, hand-rolled so the batch path can hoist the (vendor, NUL)
// prefix of the hash state out of the per-variant loop. seedFrom(base,
// seedPrefix(vendor), src) == deriveSeed(base, vendor, src) for every
// input (pinned by TestSeedPrefixMatchesDeriveSeed): FNV folds bytes in
// strictly left-to-right order, so a partially-folded state is reusable.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// seedPrefix returns the FNV-1a state after folding the platform part of
// the noise-seed namespace: the vendor name and its NUL separator.
func seedPrefix(vendor string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(vendor); i++ {
		h ^= uint64(vendor[i])
		h *= fnvPrime64
	}
	// NUL separator: XOR with zero is the identity, the multiply is not.
	h *= fnvPrime64
	return h
}

// seedFrom completes a seedPrefix state with the variant's source text.
func seedFrom(base int64, prefix uint64, src string) int64 {
	h := prefix
	for i := 0; i < len(src); i++ {
		h ^= uint64(src[i])
		h *= fnvPrime64
	}
	h *= fnvPrime64 // trailing NUL separator
	return base ^ int64(h)
}

// Speedup returns the percentage speed-up of variant time b relative to
// baseline a: positive means b is faster, as the paper reports.
func Speedup(baselineNS, variantNS float64) float64 {
	if variantNS <= 0 {
		return 0
	}
	return (baselineNS/variantNS - 1) * 100
}

// --- §IV-B support: vertex shader autogen and uniform auto-init ---

// GenerateVertexShader builds the simplified matching vertex shader for a
// fragment shader: one flat-forwarded out per fragment in, a full-screen
// position from a vertex-index trick, and a depth uniform so front-to-back
// draw order is adjustable (§IV-B).
func GenerateVertexShader(fragSrc string) (string, error) {
	sh, err := glsl.Parse(fragSrc)
	if err != nil {
		return "", err
	}
	info, err := sem.Check(sh)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	version := sh.Version
	if version == "" {
		version = "330"
	}
	fmt.Fprintf(&sb, "#version %s\n", version)
	sb.WriteString("uniform float u_depth;\n")
	for _, in := range info.Inputs() {
		fmt.Fprintf(&sb, "out %s %s;\n", in.Type, in.Name)
	}
	sb.WriteString("void main()\n{\n")
	// Full-screen triangle from gl_VertexID-style constants; the subset has
	// no gl_VertexID, so we emit a canonical triangle via a uniform-less
	// trick kept simple: position covers the viewport.
	sb.WriteString("    vec2 pos = vec2(-1.0, -1.0);\n")
	for _, in := range info.Inputs() {
		fmt.Fprintf(&sb, "    %s = %s;\n", in.Name, defaultValueExpr(in.Type))
	}
	sb.WriteString("    gl_Position = vec4(pos, u_depth, 1.0);\n}\n")
	return sb.String(), nil
}

func defaultValueExpr(t sem.Type) string {
	switch {
	case t.Equal(sem.Float):
		return "0.5"
	case t.IsVector() && t.Kind == sem.KindFloat:
		return fmt.Sprintf("%s(0.5)", t)
	case t.Equal(sem.Int):
		return "0"
	case t.IsVector() && t.Kind == sem.KindInt:
		return fmt.Sprintf("%s(0)", t)
	default:
		return fmt.Sprintf("%s(0.5)", t)
	}
}

// DefaultEnv introspects a program's interface and initializes every
// uniform and input to the harness defaults: 0.5 for float scalars and
// vectors, 1 for integer counts, identity-ish matrices, and the
// colourfully-patterned procedural texture for samplers (§IV-B).
func DefaultEnv(p *ir.Program) *exec.Env {
	env := &exec.Env{
		Uniforms: map[string]*ir.ConstVal{},
		Inputs:   map[string]*ir.ConstVal{},
		Samplers: map[string]exec.Sampler{},
	}
	for _, u := range p.Uniforms {
		if u.Type.IsSampler() {
			env.Samplers[u.Name] = exec.DefaultSampler{}
			continue
		}
		env.Uniforms[u.Name] = defaultValue(u.Type)
	}
	for _, in := range p.Inputs {
		env.Inputs[in.Name] = defaultValue(in.Type)
	}
	return env
}

func defaultValue(t sem.Type) *ir.ConstVal {
	n := t.Components()
	switch t.Kind {
	case sem.KindInt:
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = 1
		}
		return ir.IntConst(vals...)
	case sem.KindBool:
		vals := make([]bool, n)
		return ir.BoolConst(vals...)
	default:
		if t.IsMatrix() {
			// Identity matrix.
			f := make([]float64, n)
			for j := 0; j < t.Mat; j++ {
				f[j*t.Mat+j] = 1
			}
			return &ir.ConstVal{Kind: sem.KindFloat, F: f}
		}
		return ir.SplatFloat(0.5, n)
	}
}
