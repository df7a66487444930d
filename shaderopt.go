// Package shaderopt is a pure-Go reproduction of the experimental stack
// from "A Cross-platform Evaluation of Graphics Shader Compiler
// Optimization" (Crawford & O'Boyle, ISPASS 2018), grown into a
// multi-frontend, multi-backend compiler study platform: four source
// language frontends (desktop GLSL, WGSL, HLSL, and MSL) lower into one
// shared optimizer IR, LunarGlass's eight flag-controlled passes
// (including the paper's custom unsafe floating-point additions)
// transform it, and the result feeds five simulated GPU platforms with
// vendor-specific driver compilers and cost models, a timer-query
// measurement harness, and the exhaustive 256-combination
// iterative-compilation study.
//
// The pipeline is frontend-independent past the IR, and past the passes
// it fans out into three code generators:
//
//	GLSL ──parse/check──┐                ┌──> GLSL codegen ──> {desktop driver | ES conversion → mobile driver}
//	WGSL ──parse/bind───┤                │
//	HLSL ──parse/bind───┼──> IR ──passes─┼──> MSL emission    (Emit(BackendMSL))
//	MSL  ──parse/bind───┘                │
//	                                     └──> SPIR-V emission (Emit(BackendSPIRV))
//
// so every study artefact — variant enumeration, per-flag attribution,
// platform measurements, rendered images — is available for all four
// languages, and the study can ask how flag effectiveness transfers
// across source languages (the hlsl corpus family is an
// instance-for-instance port of the GLSL tonemap family with pinned
// variant fingerprints, so the comparison is exact). Source language is
// auto-detected by default and can be pinned with WithLang or the *Lang
// functions.
//
// # Backends
//
// Emit and Shader.Emit serialize a compiled shader through any Backend:
// textual desktop GLSL (BackendGLSL), textual Metal Shading Language
// (BackendMSL, ingestible by the MSL frontend), or a genuine SPIR-V 1.0
// binary module (BackendSPIRV, with an in-package decoder, structural
// validator, and disassembler in internal/spirvgen). EmitOptimized runs
// a flag set first, so any point of the 256-combination study can be
// exported in any format. Each backend round-trips: its output
// re-ingests through the matching frontend to an IR that renders
// bit-identically to the GLSL path — a zero-tolerance property pinned
// corpus-wide, for every enumerated variant, by the
// backend-differential gate (TestBackendDifferential), with per-family
// snapshot tests (testdata/snapshots, regenerated via -update) pinning
// the exact emitted text. The simulated drivers exercise the loop in
// production: each platform declares a preferred ingestion format
// (gpu.Platform.Ingest — AMD and Qualcomm take SPIR-V, NVIDIA takes
// MSL, Intel and ARM take GLSL), and the measurement pipeline inserts
// that backend round trip at the head of the vendor compile, so every
// sweep continuously re-proves emit/ingest fidelity.
//
// The study is compile-once / measure-many (256 flag combinations per
// shader across 5 platforms), so the API is built around compiled
// handles: Compile parses and lowers a shader exactly once, and every
// method on the handle reuses the cached IR. Variant enumeration — the
// hot path of a cold sweep — is memoized over the fixed pass order: the
// 256 combinations form a binary trie whose "off" edges are free and
// whose nodes merge by IR fingerprint, so each distinct intermediate IR
// is transformed once, codegen runs once per distinct result, and the
// walk shards across the session's worker pool (WithWorkers).
//
// Memoization also crosses shader boundaries: a session keeps one
// shared trie-node table keyed (step index, canonical IR fingerprint),
// so when one shader's walk reaches an intermediate IR another shader
// already pushed through a step — the übershader-family scenario, where
// variants specialized from one source walk alpha-equivalent states —
// it adopts the recorded outcome instead of re-running the pass: a
// recorded no-op collapses the subtree outright, an identical-spelling
// parent adopts the child wholesale, and an alpha-equivalent parent
// rebuilds it by positionally renaming interface slots (one clone
// instead of a pass run). Sharing stays strictly at the transform
// level — each shader keeps its own trie, variant texts, and
// measurement seeds — so shared-walk variant sets are byte-identical
// to private ones (pinned corpus-wide by
// TestSharedEnumerationMatchesPrivate, and a committed benchmark gate
// holds the twin-family speedup). With a persistent store attached, the
// name-insensitive half of each node (the no-op bit and the child's
// canonical fingerprint) survives restarts, so a warm daemon skips
// recorded no-op passes outright. The table is LRU-bounded, reports as
// enum.shared.{hits,misses}, and every session has one.
//
// A Session owns the measurement campaign on a platform roster
// (WithPlatforms), configured by four fields: the protocol
// (WithProtocol), the worker count (WithWorkers), the telemetry registry
// (WithTelemetry), and an optional persistent store (WithStore). It
// keeps a measurement cache that guarantees each distinct variant is
// measured exactly once, and LRU-bounded enumeration/lowering caches of
// a fixed budget so a long-lived sweep service's memory stays flat at
// corpus scale:
//
//	sh, _ := shaderopt.Compile(src, "myshader")
//	out := sh.Optimize(shaderopt.AllFlags)
//	sess := shaderopt.NewSession(shaderopt.WithProtocol(shaderopt.FastProtocol()))
//	sweep, _ := sess.Sweep([]*shaderopt.Shader{sh}, func(ev shaderopt.SweepEvent) {
//	    fmt.Printf("[%d/%d] %s: %d variants\n", ev.Done, ev.Total, ev.Shader, ev.UniqueVariants)
//	})
//	for _, pl := range sess.Platforms() {
//	    fmt.Println(pl.Vendor, sweep.Results[0].BestSpeedup(pl.Vendor))
//	}
//
// The string functions (Optimize, Variants, Measure, Render, Sweep, …)
// remain as one-shot convenience wrappers over Compile.
//
// # Measurement pipeline
//
// With enumeration memoized, a cold sweep is dominated by the
// measurement harness itself: driver compiles and cost-model sampling
// per (variant, platform). Session.Sweep therefore schedules work as
// (platform → batch of distinct compiled variants) and leans on four
// session caches, all LRU-bounded to the same fixed budget:
//
//   - Front-end cache: each distinct driver-visible text is parsed,
//     lowered, converted to GLES (one parse serves both — the conversion
//     consumes the raw lowering, exactly what the textual path computes),
//     canonicalized to the vendor-independent fixed point, and
//     fingerprinted once, shared across all platforms.
//   - Compile cache, keyed (vendor, IR fingerprint): variants whose
//     canonicalized lowerings converge — common after ES conversion,
//     where name loss and flattening erase textual differences — compile
//     once per platform instead of once per (variant, platform), skipping
//     the vendor pipeline and cost model entirely on a hit. The vendor
//     pipeline's opening canonicalization is skipped too
//     (gpu.CompileCanonical): the input is already the fixed point, and
//     canonicalization is idempotent. The fingerprint is
//     name-insensitive (an alpha-renamed canonical print), so lowerings
//     that differ only in identifier spellings share one compile —
//     sound because the cost models are names-blind, and pinned
//     score-identical to the name-sensitive key corpus-wide.
//   - Measurement-score cache, keyed (vendor, source hash, protocol),
//     with an in-flight table so concurrent sweeps sharing a variant wait
//     for one batched measurement instead of repeating it.
//   - The PR 3 enumeration cache (variant sets, LRU by variant count).
//
// The batch itself is one harness.MeasureBatch pass per (shader,
// platform): the per-variant setup — seed derivation's platform prefix,
// noise-generator construction, sample and summary allocation — is
// hoisted out of the Frames×Repeats inner loop. Every variant's noise
// stream stays independently seeded from (protocol seed, vendor, source),
// so batching, batch order, caching, eviction, and worker count cannot
// move a single sample: results are byte-identical to the per-variant
// legacy pipeline, which survives as Session.SweepLegacy (the
// LegacyVariants pattern) and oracles the equivalence suite. SweepEvent
// reports where the time went (EnumMS vs MeasureMS) and what the caches
// absorbed (CacheHits, CompileHits); cmd/sweep renders both live.
//
// # Observability
//
// The whole pipeline reports into a unified telemetry subsystem
// (internal/telemetry): a dependency-free, concurrency-safe registry of
// named counters, gauges, and fixed-bucket duration histograms, plus a
// span tracer that emits Chrome trace-event JSON loadable in
// chrome://tracing or Perfetto. Pass a registry in with WithTelemetry
// (or read the session's private one back with Session.Telemetry):
//
//	reg := shaderopt.NewTelemetry()
//	tr := shaderopt.NewTracer()
//	reg.SetTracer(tr)
//	sess := shaderopt.NewSession(shaderopt.WithTelemetry(reg))
//	sweep, _ := sess.Sweep(handles, nil)
//	fmt.Print(sess.Metrics().Table())     // end-of-run metrics table
//	tr.WriteJSON(f)                       // chrome://tracing file
//	_ = sweep.Stats                       // aggregate PipelineStats
//
// Every layer contributes: the frontends record per-language parse
// spans and frontend.parses counters, the enumeration trie its
// enum.{nodes,steps,collapses,merges,leaves} structure, all session
// caches — the persistent store included, when one is attached —
// uniform cache.<name>.{hits,misses,evictions} counters
// through the LRU's stats sink, the simulated drivers per-vendor
// "compile <vendor>" spans and the gpu.compile histogram, and the
// harness batch sizes and sample-loop durations. Everything is nil-safe
// and off by default — instrumentation never changes results (a traced
// sweep's scores are byte-identical to an untraced one's, pinned by
// TestSweepTracedMatchesUntraced). cmd/sweep exposes all of it: -trace
// out.json, -metrics, and -debug-addr (expvar + net/http/pprof).
//
// # Sweep service
//
// A session can layer a persistent content-addressed store
// (internal/store) under its in-memory caches: open one with OpenStore
// and attach it with WithStore. Driver compiles keyed (vendor,
// canonical IR fingerprint) and measurement summaries keyed (vendor,
// source hash, protocol) are written through to sharded on-disk entries
// with versioned, checksummed headers; corrupt or truncated entries
// degrade to misses, and the store is size-bounded with
// least-recently-accessed eviction. Warm state therefore survives
// restarts: a sweep over a warm store runs zero driver compiles and
// zero harness measurements and returns byte-identical scores (pinned
// by TestWarmStoreSweepRunsNothing). Store traffic reports into the
// same registry as the in-memory caches
// (cache.store.{hits,misses,evictions}, store.writes).
//
// cmd/sweepd serves a shared warm session as a long-lived HTTP daemon:
// POST /sweep takes shader sources plus a named protocol and streams
// newline-delimited JSON progress events followed by every score;
// GET /healthz and GET /metricz cover liveness and metrics; SIGTERM
// drains gracefully (in-flight sweeps complete, store synced, exit 0).
// cmd/sweep -server <addr> is the thin client: sources go over the
// wire, measurement happens in the daemon's shared session and store,
// and the streamed scores join a local deterministic enumeration so
// every report renders exactly as it would locally. Concurrent clients
// with overlapping corpora dedupe through the shared in-flight
// measurement table, and warm daemon restarts serve entirely from the
// store — both pinned by internal/sweepd's load tests.
//
// # Testing strategy
//
// Aggressive rewrites of the optimizer and its enumeration engine are
// kept safe by four layers of tests, from broadest to sharpest:
//
//   - Differential equivalence (TestDifferentialEquivalence): the
//     metamorphic oracle. Every enumerated variant of every corpus shader
//     — all three corpus languages — is re-parsed from its generated text (the
//     exact bytes a driver receives), rendered through the reference
//     interpreter, and compared pixel-by-pixel against the unoptimized
//     shader: bit-for-bit for safe flag sets, within a documented epsilon
//     for the two unsafe FP flags; and every variant must be accepted by
//     all five platform drivers. -short runs a representative subset, CI
//     runs the full corpus. The cross-language suite
//     (TestHLSLFamilyVariantFingerprints) additionally pins the ported
//     hlsl corpus family to its GLSL source family: identical
//     flag→variant partitions and bit-identical renders, so frontend
//     changes cannot silently alter the optimizable shape of a program.
//     The backend-differential gate (TestBackendDifferential) extends
//     the oracle across backends: every variant's MSL and SPIR-V
//     emission must re-ingest to an IR that renders bit-identically to
//     the GLSL path, with per-family snapshot tests pinning the exact
//     emitted text and the SPIR-V structural validator accepting every
//     module.
//   - Reference-implementation pinning: the pre-memoization enumeration
//     survives as Shader.LegacyVariants, and
//     TestMemoizedEnumerationMatchesLegacy pins the trie path
//     byte-identical to it corpus-wide — sources, hashes, ordering, and
//     flag attribution. The harness-equivalence suite does the same for
//     the measurement pipeline: MeasureBatch field-identical to
//     per-variant MeasureCompiled (samples included), CompileCanonical
//     identical to Compile on canonical input, and the batched
//     Session.Sweep score-identical to Session.SweepLegacy corpus-wide,
//     invariant under worker count, shader order, and cache hit/miss
//     order. Worker-invariance tests run under -race in CI, and
//     cache-bound tests pin that LRU eviction — enumeration, lowering,
//     compile, and measurement-score caches alike — never changes
//     results, only retention.
//   - Fuzzing: native go-fuzz targets for the frontends — WGSL and
//     HLSL lexers, parsers, and compile round trips; GLSL preprocessor,
//     lexer, parser, and the parse→lower→generate→re-parse round trip —
//     plus the four-way DetectLang, with seed corpora under
//     testdata/fuzz, short smoke campaigns in CI, and 2-minute campaigns
//     per target in the nightly workflow.
//   - Golden files: the Table I / Fig. 3-9 report renderers and the
//     static-characterization data are compared byte-for-byte against
//     checked-in goldens (regenerate with -update), so output changes are
//     reviewed as diffs.
//
// Two benchmark-regression gates time the memoized paths against their
// preserved legacy counterparts in-process and fail CI if the speedup
// falls below the committed factor: TestEnumerationSpeedupRegression
// (testdata/enum_baseline.json) for variant enumeration, and
// TestHarnessSpeedupRegression (testdata/harness_baseline.json) for the
// batched measurement pipeline. Under GitHub Actions both gates write
// their measured speedups to the run's step summary.
//
// CI is two-stage: a fast `quick` matrix (gofmt, vet, staticcheck,
// build, -short suite under -race, on Go 1.22/1.23 × ubuntu/macos) gives
// PR signal in minutes, and the five full-corpus oracles above run
// behind it in a `gates` job that a broken build never reaches. A
// nightly workflow runs the full suite per language, 2-minute fuzz
// campaigns on every target, the complete benchmark run, and uploads the
// generated study reports (Table I / Fig. 5, per source language) as
// build artifacts.
package shaderopt

import (
	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/crossc"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/passes"
	"shaderopt/internal/search"
	"shaderopt/internal/telemetry"
)

// Flags selects optimization passes; combine with bitwise or.
type Flags = passes.Flags

// The eight optimization flags (Table I column order) and the standard
// sets.
const (
	ADCE          = passes.FlagADCE
	Coalesce      = passes.FlagCoalesce
	GVN           = passes.FlagGVN
	Reassociate   = passes.FlagReassociate
	Unroll        = passes.FlagUnroll
	Hoist         = passes.FlagHoist
	FPReassociate = passes.FlagFPReassociate
	DivToMul      = passes.FlagDivToMul

	// DefaultFlags is LunarGlass's default set (the six pre-existing
	// passes); NoFlags is the all-off artefact baseline; AllFlags enables
	// everything including the unsafe FP passes.
	DefaultFlags = passes.DefaultFlags
	NoFlags      = passes.NoFlags
	AllFlags     = passes.AllFlags
)

// ParseFlags parses "unroll+fp-reassociate" style flag lists; "none",
// "default", and "all" are accepted.
func ParseFlags(s string) (Flags, error) { return passes.ParseFlags(s) }

// Lang selects a source language frontend.
type Lang = core.Lang

// Source languages. LangAuto detects from the source text.
const (
	LangAuto = core.LangAuto
	LangGLSL = core.LangGLSL
	LangWGSL = core.LangWGSL
	LangHLSL = core.LangHLSL
	LangMSL  = core.LangMSL
)

// ParseLang parses a -lang flag value ("auto", "glsl", "wgsl", "hlsl",
// "msl").
func ParseLang(s string) (Lang, error) { return core.ParseLang(s) }

// DetectLang guesses the source language of a fragment shader.
func DetectLang(src string) Lang { return core.DetectLang(src) }

// Backend selects a code-generation target: desktop GLSL text (the
// paper's interchange form), Metal Shading Language text, or a binary
// SPIR-V 1.0 module. Every backend is render-lossless over the IR
// subset, pinned corpus-wide by the backend-differential suite.
type Backend = core.Backend

// Codegen backends.
const (
	BackendGLSL  = core.BackendGLSL
	BackendMSL   = core.BackendMSL
	BackendSPIRV = core.BackendSPIRV
)

// ParseBackend parses a -backend flag value ("glsl", "msl", "spirv").
func ParseBackend(s string) (Backend, error) { return core.ParseBackend(s) }

// Emit compiles fragment shader source (any supported language,
// auto-detected) and serializes the unoptimized IR through the given
// backend. Text backends return source bytes; BackendSPIRV returns a
// little-endian binary module.
func Emit(src, name string, b Backend) ([]byte, error) {
	sh, err := Compile(src, name)
	if err != nil {
		return nil, err
	}
	return sh.Emit(b)
}

// EmitOptimized is Emit after running the optimizer with the given
// flags.
func EmitOptimized(src, name string, flags Flags, b Backend) ([]byte, error) {
	sh, err := Compile(src, name)
	if err != nil {
		return nil, err
	}
	return sh.EmitOptimized(flags, b)
}

// Optimize runs the offline optimizer on fragment shader source (GLSL,
// WGSL, or HLSL, auto-detected) and returns optimized desktop GLSL — the
// interchange form every simulated driver consumes. Convenience wrapper
// over Compile for one-shot use; compile a handle to reuse the parsed
// form.
func Optimize(src, name string, flags Flags) (string, error) {
	return OptimizeLang(src, name, LangAuto, flags)
}

// OptimizeLang is Optimize with the source language pinned.
func OptimizeLang(src, name string, lang Lang, flags Flags) (string, error) {
	sh, err := Compile(src, name, WithLang(lang))
	if err != nil {
		return "", err
	}
	return sh.Optimize(flags), nil
}

// OptimizeWGSL runs the offline optimizer on a WGSL fragment shader and
// returns optimized desktop GLSL. Convenience wrapper over Compile.
func OptimizeWGSL(src, name string, flags Flags) (string, error) {
	return OptimizeLang(src, name, LangWGSL, flags)
}

// OptimizeHLSL runs the offline optimizer on an HLSL pixel shader and
// returns optimized desktop GLSL. Convenience wrapper over Compile.
func OptimizeHLSL(src, name string, flags Flags) (string, error) {
	return OptimizeLang(src, name, LangHLSL, flags)
}

// Variants enumerates all 256 flag combinations for a shader (GLSL,
// WGSL, or HLSL, auto-detected) and deduplicates the distinct outputs
// (Fig. 4c). Convenience wrapper over Compile for one-shot use.
func Variants(src, name string) (*core.VariantSet, error) {
	return VariantsLang(src, name, LangAuto)
}

// VariantsLang is Variants with the source language pinned.
func VariantsLang(src, name string, lang Lang) (*core.VariantSet, error) {
	sh, err := Compile(src, name, WithLang(lang))
	if err != nil {
		return nil, err
	}
	return sh.Variants(), nil
}

// Variant re-exports the deduplicated variant type.
type Variant = core.Variant

// VariantSet re-exports the enumeration result type.
type VariantSet = core.VariantSet

// Platform is one of the five simulated GPUs.
type Platform = gpu.Platform

// Platforms returns the paper's five platforms: Intel HD 530, AMD RX 480,
// NVIDIA GTX 1080, ARM Mali-T880, Qualcomm Adreno 530.
func Platforms() []*Platform { return gpu.Platforms() }

// PlatformByVendor looks a platform up by its short name.
func PlatformByVendor(vendor string) *Platform { return gpu.PlatformByVendor(vendor) }

// Protocol is the measurement configuration (§IV-B).
type Protocol = harness.Config

// DefaultProtocol is the paper's protocol: 500×500 fragments per draw,
// 1000 draws per frame on desktop (100 on mobile), 100 frames × 5 repeats.
func DefaultProtocol() Protocol { return harness.DefaultConfig() }

// FastProtocol trades samples for speed.
func FastProtocol() Protocol { return harness.FastConfig() }

// Measurement holds frame time samples and their aggregates.
type Measurement = harness.Measurement

// Measure times fragment shader source on a platform under the protocol.
// GLSL is measured as written (mobile platforms receive it through the
// GLES conversion pipeline); WGSL and HLSL input is auto-detected and
// measured via its unoptimized GLSL translation, the form a driver would
// see. Convenience wrapper over Compile for one-shot use; compile a
// handle (or use a Session) to measure many variants without re-parsing.
func Measure(pl *Platform, src string, cfg Protocol) (*Measurement, error) {
	sh, err := Compile(src, "measure")
	if err != nil {
		return nil, err
	}
	return sh.Measure(pl, cfg)
}

// Speedup converts a baseline/variant time pair into the paper's
// percentage speed-up metric.
func Speedup(baselineNS, variantNS float64) float64 {
	return harness.Speedup(baselineNS, variantNS)
}

// ConvertToES runs the glslang/SPIRV-Cross-style mobile conversion.
func ConvertToES(src, name string) (string, error) { return crossc.ToES(src, name) }

// ToGLSL returns the desktop-GLSL form of a shader: GLSL input passes
// through untouched; WGSL and HLSL input is lowered and regenerated
// unoptimized, the source a driver would actually receive. Convenience
// wrapper over Compile for one-shot use.
func ToGLSL(src, name string, lang Lang) (string, error) {
	return core.ToGLSL(src, name, lang)
}

// GenerateVertexShader builds the §IV-B matching vertex shader for a
// fragment shader.
func GenerateVertexShader(fragSrc string) (string, error) {
	return harness.GenerateVertexShader(fragSrc)
}

// Corpus loads the synthetic GFXBench-4.0-like shader suite.
func Corpus() ([]*corpus.Shader, error) { return corpus.Load() }

// CorpusShader re-exports the corpus entry type.
type CorpusShader = corpus.Shader

// CompileCorpus compiles every corpus entry into a handle, ready for a
// Session sweep: one frontend parse per shader. Options are applied to
// each compile (WithTelemetry records the parses; the corpus entry's
// language always wins over WithLang).
func CompileCorpus(shaders []*corpus.Shader, opts ...Option) ([]*Shader, error) {
	out := make([]*Shader, len(shaders))
	for i, cs := range shaders {
		callOpts := append(append(make([]Option, 0, len(opts)+1), opts...), WithLang(cs.Lang))
		sh, err := Compile(cs.Source, cs.Name, callOpts...)
		if err != nil {
			return nil, err
		}
		out[i] = sh
	}
	return out, nil
}

// Sweep runs the full exhaustive study (all shaders × 256 combinations ×
// all platforms). Convenience wrapper over the handle API: it compiles
// each corpus shader once and sweeps the handles through a fresh Session.
func Sweep(shaders []*corpus.Shader, platforms []*Platform, cfg Protocol) (*search.Sweep, error) {
	return search.Run(shaders, platforms, search.Options{Cfg: cfg})
}

// SweepResult re-exports the study result type.
type SweepResult = search.Sweep

// PipelineStats re-exports the aggregate sweep observability summary
// attached to SweepResult.Stats.
type PipelineStats = search.PipelineStats

// Telemetry is the unified metrics registry the pipeline reports into:
// named counters, gauges, and duration histograms, plus an optional
// attached Tracer. Attach one with WithTelemetry; all methods are safe
// for concurrent use and nil-safe.
type Telemetry = telemetry.Registry

// NewTelemetry creates an empty telemetry registry.
func NewTelemetry() *Telemetry { return telemetry.NewRegistry() }

// Tracer records spans and writes them as Chrome trace-event JSON
// (chrome://tracing, Perfetto). Attach one with Telemetry.SetTracer.
type Tracer = telemetry.Tracer

// NewTracer creates a tracer timestamping spans against a wall-clock
// epoch taken now.
func NewTracer() *Tracer { return telemetry.NewTracer() }

// TelemetrySnapshot is a point-in-time copy of a registry's metrics,
// mergeable across registries and renderable with Table.
type TelemetrySnapshot = telemetry.Snapshot

// Render interprets a fragment shader (GLSL, WGSL, or HLSL,
// auto-detected) functionally for every pixel of a w×h image with
// default-initialized uniforms (0.5 floats, the patterned texture) and uv
// varying over [0,1]². It returns RGBA rows — handy for visually
// confirming optimization equivalence, including across frontends.
// Convenience wrapper over Compile for one-shot use.
func Render(src, name string, w, h int, flags Flags) ([][][4]float64, error) {
	sh, err := Compile(src, name)
	if err != nil {
		return nil, err
	}
	return sh.Render(w, h, flags)
}
