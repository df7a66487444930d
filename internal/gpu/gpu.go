// Package gpu models the five evaluation platforms of the paper: Intel HD
// Graphics 530, AMD RX 480, NVIDIA GeForce GTX 1080, ARM Mali-T880 MP12,
// and Qualcomm Adreno 530. Each platform is a vendor driver compiler (its
// own internal pass pipeline over the shared IR) plus a micro-architecture
// cost model. The paper's central phenomenon — the same offline
// optimization helping one GPU and hurting another — emerges from the
// mechanical differences configured here (which optimizations each JIT
// already performs, scalar vs. vector execution, register file size and
// occupancy, instruction cache capacity, branch cost), not from hard-coded
// outcomes.
package gpu

import (
	"fmt"
	"time"

	"shaderopt/internal/crossc"
	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/isa"
	"shaderopt/internal/lower"
	"shaderopt/internal/passes"
	"shaderopt/internal/telemetry"
)

// DriverConfig describes which optimizations a vendor's JIT compiler
// performs on incoming GLSL. Conformance forbids the unsafe FP rewrites,
// so no driver has FP reassociation — only the offline optimizer does.
type DriverConfig struct {
	// UnrollMaxTrips is the largest constant trip count the JIT unrolls
	// (0 = the driver never unrolls).
	UnrollMaxTrips int
	// UnrollMaxInstrs bounds the expanded body size the JIT accepts.
	UnrollMaxInstrs int
	// GVN enables driver-side cross-block value numbering.
	GVN bool
	// IntReassoc enables driver-side integer reassociation.
	IntReassoc bool
	// DivToMulConst enables driver-side constant-reciprocal folding.
	DivToMulConst bool
	// CoalesceMoves enables driver-side vector-insert coalescing.
	CoalesceMoves bool
	// HoistMaxOps is the arm-size budget for driver if-conversion
	// (0 = never).
	HoistMaxOps int
}

// Platform is one of the paper's five measurement targets.
type Platform struct {
	// Vendor is the short name used in the paper's tables: Intel, AMD,
	// NVIDIA, ARM, Qualcomm.
	Vendor string
	// GPUName is the marketing name of the device.
	GPUName string
	// DriverName describes the driver stack (§IV-C).
	DriverName string
	// Mobile platforms receive shaders through the GLES conversion path.
	Mobile bool
	// Ingest names the program form this driver stack prefers to ingest
	// (crossc.IngestGLSL/IngestMSL/IngestSPIRV; "" means GLSL). Non-GLSL
	// formats insert a backend round trip — serialize through that
	// backend, re-ingest through its front end — at the head of the
	// vendor pipeline, modelling a runtime that hands the driver
	// translated MSL or SPIR-V rather than the interchange GLSL. The
	// assignment across the five platforms exercises every backend in
	// the measurement loop; it is not a claim of vendor realism (the
	// paper's drivers all consumed GLSL).
	Ingest string

	Driver DriverConfig
	Cost   CostParams
	ISA    isa.Config

	// Timer query noise model parameters (§IV-B; Intel is the cleanest
	// platform, Qualcomm the noisiest — §VI-D7/8).
	NoiseSigma   float64
	OverheadNS   float64
	ResolutionNS float64
}

// Compiled is the result of running a shader through a platform's driver
// compiler.
type Compiled struct {
	Platform *Platform
	Stats    isa.Stats
	// Cycle breakdown per fragment (the Mali offline analyser's A/LS/T
	// decomposition in Fig. 4b generalizes to every platform here).
	Arith     float64
	LoadStore float64
	Texture   float64
	Overhead  float64 // branches, exposed latency, i-cache penalty
	// CyclesPerFragment is the modelled total.
	CyclesPerFragment float64
}

// FrontEnd parses and lowers GLSL source through the shared driver front
// end (every simulated driver shares ours, as real drivers share Mesa's).
// name labels the program in errors.
func FrontEnd(src, name string) (*ir.Program, error) {
	sh, err := glsl.Parse(src)
	if err != nil {
		return nil, err
	}
	return lower.Lower(sh, name)
}

// CompileSource runs the vendor JIT on GLSL source: the shared driver
// front end, then the vendor-internal passes, ISA analysis, and cost
// model.
func (pl *Platform) CompileSource(src string) (*Compiled, error) {
	prog, err := FrontEnd(src, pl.Vendor)
	if err != nil {
		return nil, fmt.Errorf("%s driver: %w", pl.Vendor, err)
	}
	return pl.Compile(prog)
}

// Compile runs the vendor JIT on an already-lowered program, skipping the
// driver front end — the entry point for callers that hold a compiled IR
// handle. The opening canonicalization transforms prog in place, and on a
// platform that CompilesInPlace so does the rest of the driver pipeline;
// pass a clone if the program is shared. The error reports a failed
// ingestion round trip (see Platform.Ingest).
func (pl *Platform) Compile(prog *ir.Program) (*Compiled, error) {
	// Driver-internal pipeline. Every driver folds constants and cleans up
	// (canonicalize); the rest is vendor-specific.
	passes.Canonicalize(prog)
	return pl.compileCanonical(nil, prog)
}

// CompileCanonical runs the vendor JIT on a program that is already at the
// driver front end's canonicalization fixed point, skipping the pipeline's
// opening canonicalization. Canonicalize is idempotent, so for canonical
// input the result is identical to Compile on a clone of the same program
// (pinned by TestCompileCanonicalMatchesCompile) while the fixed-point
// verification sweep runs once per distinct program instead of once per
// platform. For input of unknown provenance use Compile. On a platform
// that CompilesInPlace it transforms prog in place, so pass a clone if the
// program is shared; a translating platform only reads prog.
//
// CompileCanonical panics if the ingestion round trip fails, which for
// GLSL ingestion (the identity) it never does; callers compiling for a
// translating platform use CompileCanonicalT, which returns the error.
func (pl *Platform) CompileCanonical(prog *ir.Program) *Compiled {
	c, err := pl.CompileCanonicalT(nil, prog)
	if err != nil {
		panic(err)
	}
	return c
}

// CompileCanonicalT is CompileCanonical with a telemetry registry
// threaded in and the ingestion error returned: a translating platform's
// re-ingestion records a "reingest <format>" span, the vendor passes
// after it a per-vendor "compile <vendor>" span, and the whole compile
// the gpu.compiles counters and its wall-clock duration in the
// gpu.compile histogram (whose sum is a sweep's total driver-compile
// time). A nil registry records nothing; instrumentation never changes
// the compile. prog is transformed in place exactly when the platform
// CompilesInPlace.
func (pl *Platform) CompileCanonicalT(reg *telemetry.Registry, prog *ir.Program) (*Compiled, error) {
	if reg == nil {
		return pl.compileCanonical(nil, prog)
	}
	start := time.Now()
	c, err := pl.compileCanonical(reg, prog)
	reg.Histogram("gpu.compile").Observe(time.Since(start))
	reg.Counter("gpu.compiles").Inc()
	reg.Counter("gpu.compiles." + pl.Vendor).Inc()
	return c, err
}

// startSpan opens a span named prefix+name when reg has a tracer
// attached, and otherwise returns a nil span without building the name,
// so an untraced compile allocates nothing for its spans.
func startSpan(reg *telemetry.Registry, prefix, name string) *telemetry.Span {
	t := reg.Tracer()
	if t == nil {
		return nil
	}
	return t.Start(prefix+name, "gpu")
}

// compileCanonical is the vendor-specific tail of the driver pipeline:
// everything after the opening canonicalization. reg, when non-nil,
// receives its spans. A re-ingested program dies here (a Compiled keeps
// no program), so it is released for the next compile's storage.
func (pl *Platform) compileCanonical(reg *telemetry.Registry, in *ir.Program) (*Compiled, error) {
	prog, err := pl.ingest(reg, in)
	if err != nil {
		return nil, err
	}
	if prog != in {
		defer prog.Release()
	}
	span := startSpan(reg, "compile ", pl.Vendor)
	defer span.End()
	d := pl.Driver
	if d.UnrollMaxTrips > 0 {
		maxInstrs := d.UnrollMaxInstrs
		if maxInstrs == 0 {
			maxInstrs = 4096
		}
		if passes.UnrollWithLimit(prog, d.UnrollMaxTrips, maxInstrs) {
			passes.Canonicalize(prog)
		}
	}
	if d.HoistMaxOps > 0 {
		if passes.HoistWithBudget(prog, d.HoistMaxOps) {
			passes.Canonicalize(prog)
		}
	}
	if d.IntReassoc {
		if passes.Reassociate(prog) {
			passes.Canonicalize(prog)
		}
	}
	if d.DivToMulConst {
		if passes.DivToMul(prog) {
			passes.Canonicalize(prog)
		}
	}
	if d.GVN {
		if passes.GVN(prog) {
			passes.Canonicalize(prog)
		}
	}
	if d.CoalesceMoves {
		passes.Coalesce(prog)
	}

	stats := isa.Analyze(prog, pl.ISA)
	c := &Compiled{Platform: pl, Stats: stats}
	pl.Cost.fill(c)
	return c, nil
}

// CompilesInPlace reports whether the vendor pipeline after the opening
// canonicalization (CompileCanonical) transforms its input program in
// place. It does for GLSL ingestion, the identity. A translating platform
// (MSL or SPIR-V ingestion) serializes the input, re-ingests it into a
// fresh program and compiles that, so the input is only read.
func (pl *Platform) CompilesInPlace() bool {
	return pl.Ingest == "" || pl.Ingest == crossc.IngestGLSL
}

// ingest passes the program through the platform's preferred ingestion
// format (Platform.Ingest): the backend round trip a translating runtime
// performs before the vendor JIT sees the shader. GLSL ingestion is the
// identity. The round trip can leave the canonicalization fixed point,
// so a translated program is re-canonicalized before the vendor passes.
// Every measurement path converges here — MeasureSource and the session
// compile cache both reach compileCanonical — so the harness-equivalence
// suite holds without per-path wiring.
//
// A failed round trip is returned, not panicked: the backends are total
// over the verified IR subset the corpus exercises (pinned by the
// backend-differential suite), but a sweep service compiles whatever a
// client uploads, and one shader outside that subset must fail its own
// measurement, not the process.
func (pl *Platform) ingest(reg *telemetry.Registry, prog *ir.Program) (*ir.Program, error) {
	if pl.CompilesInPlace() {
		return prog, nil
	}
	span := startSpan(reg, "reingest ", pl.Ingest)
	defer span.End()
	re, err := crossc.Reingest(prog, pl.Vendor, pl.Ingest)
	if err != nil {
		return nil, fmt.Errorf("%s driver ingest (%s): %w", pl.Vendor, pl.Ingest, err)
	}
	if re != prog {
		passes.Canonicalize(re)
	}
	return re, nil
}

// DrawNS returns the modelled true (noise-free) GPU time for one draw call
// covering the given number of fragments.
func (c *Compiled) DrawNS(fragments int) float64 {
	return c.CyclesPerFragment*float64(fragments)*c.Platform.Cost.NSPerFragCycle +
		c.Platform.Cost.DrawOverheadNS
}
