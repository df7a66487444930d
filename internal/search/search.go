// Package search implements the paper's iterative-compilation study: the
// exhaustive evaluation of all 256 flag combinations for every corpus
// shader on every platform (§III-A), and the analyses behind Table I and
// Figures 3 and 5-9.
//
// The study is compile-once / measure-many, so it is built on compiled
// handles (core.Shader) and a Session: the handle caches the lowered IR
// and the deduplicated variant enumeration, and the Session owns a
// concurrency-safe measurement cache keyed by (vendor, source hash,
// protocol) plus a cached ES-conversion table, so each distinct variant
// is measured exactly once no matter how many shaders, flag sets, or
// sweeps share it.
package search

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"shaderopt/internal/core"
	"shaderopt/internal/crossc"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/ir"
	"shaderopt/internal/lru"
	"shaderopt/internal/passes"
	"shaderopt/internal/store"
	"shaderopt/internal/telemetry"
)

// ShaderResult holds one shader's exhaustive measurements.
type ShaderResult struct {
	// Handle is the compiled shader the measurements were derived from.
	Handle   *core.Shader
	Variants *core.VariantSet
	// OrigNS is the measured time of the unmodified original source per
	// platform vendor.
	OrigNS map[string]float64
	// VariantNS maps vendor -> variant hash -> measured time.
	VariantNS map[string]map[string]float64
}

// Name returns the shader's study name.
func (r *ShaderResult) Name() string { return r.Handle.Name }

// Lang returns the shader's source language, read from the compiled
// handle — the attribution key of the per-language study split.
func (r *ShaderResult) Lang() core.Lang { return r.Handle.Lang }

// NSFor returns the measured time of the variant produced by flags.
func (r *ShaderResult) NSFor(vendor string, flags core.Flags) float64 {
	v := r.Variants.VariantFor(flags)
	return r.VariantNS[vendor][v.Hash]
}

// SpeedupFor returns the % speedup of the flags variant vs the original.
func (r *ShaderResult) SpeedupFor(vendor string, flags core.Flags) float64 {
	return harness.Speedup(r.OrigNS[vendor], r.NSFor(vendor, flags))
}

// BestVariant returns the fastest variant and its time.
func (r *ShaderResult) BestVariant(vendor string) (*core.Variant, float64) {
	var best *core.Variant
	bestNS := 0.0
	for _, v := range r.Variants.Variants {
		ns := r.VariantNS[vendor][v.Hash]
		if best == nil || ns < bestNS {
			best, bestNS = v, ns
		}
	}
	return best, bestNS
}

// BestSpeedup returns the best-per-shader % speedup vs the original.
func (r *ShaderResult) BestSpeedup(vendor string) float64 {
	_, ns := r.BestVariant(vendor)
	return harness.Speedup(r.OrigNS[vendor], ns)
}

// Sweep is the full study result.
type Sweep struct {
	Platforms []*gpu.Platform
	Results   []*ShaderResult
	Cfg       harness.Config
	// Stats aggregates where this sweep spent its time and what the
	// session caches absorbed, with a full telemetry snapshot attached.
	Stats PipelineStats
}

// PipelineStats is the aggregate observability summary of one sweep: the
// per-shader SweepEvent stream folded into totals, plus a point-in-time
// snapshot of the session's telemetry registry (cumulative over the
// session — reuse a session and the registry keeps counting, while the
// event-derived totals here are per sweep).
type PipelineStats struct {
	// Shaders is the number of handles swept.
	Shaders int
	// UniqueVariants sums each swept shader's deduplicated variant count.
	UniqueVariants int
	// Measured counts measurements this sweep ran; CacheHits counts the
	// ones the session measurement cache (or an in-flight wait) absorbed.
	Measured, CacheHits int64
	// CompileHits counts driver compiles served from the (vendor, IR
	// fingerprint) compile cache during this sweep.
	CompileHits int64
	// EnumMS and MeasureMS sum the per-shader enumeration and measurement
	// wall-clock milliseconds (summed across concurrently-swept shaders,
	// so they can exceed the sweep's wall-clock time).
	EnumMS, MeasureMS float64
	// Metrics is the session's telemetry snapshot taken as the sweep
	// finished: every counter, gauge, and histogram the pipeline layers
	// recorded (frontend parses, enumeration trie structure, per-cache
	// hits/misses/evictions, per-vendor compiles, harness batches).
	Metrics *telemetry.Snapshot
}

// HitRate returns the measurement-cache hit rate of the sweep in
// [0, 1] (0 when nothing was looked up).
func (p PipelineStats) HitRate() float64 {
	total := p.Measured + p.CacheHits
	if total == 0 {
		return 0
	}
	return float64(p.CacheHits) / float64(total)
}

// CompileMS returns the sweep's total driver-compile wall-clock
// milliseconds, read from the gpu.compile histogram of the telemetry
// snapshot (0 without a snapshot).
func (p PipelineStats) CompileMS() float64 {
	if p.Metrics == nil {
		return 0
	}
	return float64(p.Metrics.Histograms["gpu.compile"].Sum.Nanoseconds()) / 1e6
}

// SweepEvent is one progress report from a running sweep, streamed through
// the Session.Sweep callback as each shader completes.
type SweepEvent struct {
	// Shader is the completed shader's name.
	Shader string
	// Lang is the shader's source language ("glsl", "wgsl", ...), so a
	// mixed-corpus event stream attributes each line to its frontend and
	// consumers (progress renderers, the sweepd ndjson stream) can slice
	// progress per language without a corpus lookup.
	Lang string
	// Done and Total count completed shaders and the sweep size.
	Done, Total int
	// UniqueVariants is the shader's deduplicated variant count (Fig. 4c).
	UniqueVariants int
	// Measured counts the measurements this shader actually ran; CacheHits
	// counts the ones the session cache already had.
	Measured, CacheHits int
	// Workers is the session's worker-pool size — the shard width the
	// enumeration trie walk and the shader fan-out ran at.
	Workers int
	// EnumCached reports that the variant set came from the session's
	// enumeration cache instead of being enumerated for this event.
	EnumCached bool
	// EnumMS is the wall-clock milliseconds enumeration took for this
	// shader (~0 when EnumCached).
	EnumMS float64
	// CompileHits counts driver compiles this shader's measurements served
	// from the session compile cache — variants whose canonicalized
	// lowerings converged to an already-compiled (vendor, IR fingerprint)
	// — instead of running the vendor pipeline again.
	CompileHits int
	// MeasureMS is the wall-clock milliseconds the shader spent in the
	// measurement pipeline: driver compiles, the batched sampling passes,
	// and waits on measurements shared with concurrently-sweeping shaders.
	// Together with EnumMS it shows where a sweep spends its time.
	MeasureMS float64
}

// CacheBound is the budget of every session LRU: the enumeration cache
// may hold this many variants (LRU by variant count), and the
// driver-lowering, compile, and score caches the same number of entries.
// It is sized for a corpus-scale working set (64 shaders at the full 256
// combinations) while keeping a long-lived sweep service's memory flat.
// sweepd bounds its memo of compiled handles, costed by variant count
// too, by the same budget.
const CacheBound = 64 * 256

// Options configures a session.
type Options struct {
	Cfg harness.Config
	// Workers bounds parallelism (0 = GOMAXPROCS): the shader fan-out of
	// Sweep and the shard width of the memoized variant enumeration.
	Workers int
	// Telemetry, when non-nil, is the registry every pipeline layer the
	// session drives reports into — frontend parses, enumeration trie
	// counters, per-cache hits/misses/evictions, per-vendor compile
	// spans and durations, harness batch sizes — and whose attached
	// tracer (if any) receives the sweep's spans. Nil makes the session
	// create a private registry, so the stats accessors and Sweep.Stats
	// always work; read it back through Session.Telemetry.
	Telemetry *telemetry.Registry
	// Store, when non-nil, layers a persistent on-disk cache under the
	// in-memory LRUs: memory miss → store read → compute → write-through,
	// for driver compiles (keyed vendor + canonical IR fingerprint),
	// measurement scores (keyed vendor + source hash + protocol), and
	// shared trie-node outcomes (the no-op bit and the child's canonical
	// fingerprint, keyed step + canonical parent fingerprint). The
	// session instruments the store's hit/miss/eviction traffic into its
	// telemetry registry (cache.store.*, store.*). Sharing one store
	// across sessions is sound — entries are deterministic
	// recomputations — but the sinks belong to the last session that
	// attached.
	Store *store.Store
}

// Session owns the shared state of a measurement campaign: the protocol,
// the platform roster, a concurrency-safe measurement-score cache keyed
// by (vendor, source hash, protocol), a cached ES-conversion table, and
// four LRU-bounded caches — variant enumerations (evicted by variant
// count), canonicalized driver-front-end lowerings, driver compiles keyed
// by (vendor, IR fingerprint), and the measurement scores themselves — so
// a long-lived sweep service's memory stays flat at corpus scale. All
// methods are safe for concurrent use; cached measurements are sound
// because the harness is deterministic per (vendor, source, protocol).
type Session struct {
	cfg       harness.Config
	workers   int
	platforms []*gpu.Platform

	// scores is the bounded cache of completed measurement scores;
	// inflight coordinates measurements currently being taken, so
	// concurrently-sweeping shaders that share a variant wait for one
	// batched measurement instead of repeating it. A key evicted from
	// scores is simply re-measured, bit-identically, on its next use
	// (the harness is deterministic), so eviction trades only time for
	// memory. An owner adds its score to scores before it deletes its
	// inflight entry, and a goroutine that wins a fresh reservation looks
	// in scores once more before measuring, so a measurement finishing
	// between a scores miss and the reservation is reused, not repeated.
	// Only an eviction in that window can still duplicate a
	// (bit-identical) measurement.
	scores   *lru.Cache[measKey, float64]
	inflight sync.Map // measKey -> *measEntry

	// lowered caches the driver front end's work per distinct source text:
	// the canonicalized lowering, its IR fingerprint, and (for desktop
	// texts in a session with mobile platforms) the GLES conversion —
	// all derived from one parse. compiled caches vendor-pipeline results
	// per (vendor, fingerprint), so variants whose lowerings converge at
	// the canonicalization fixed point — common after ES conversion —
	// compile once per platform instead of once per (variant, platform);
	// enums caches variant enumerations per (lang, source hash). All are
	// LRU-evicted: on a racing miss two goroutines may redundantly compute
	// the same deterministic value, which is benign, unlike unbounded
	// growth.
	lowered  *lru.Cache[string, *frontEnd]
	compiled *lru.Cache[compiledKey, *gpu.Compiled]
	enums    *lru.Cache[enumKey, *core.VariantSet]

	// shared is the session's cross-shader trie-node table, which every
	// enumeration runs through. Sharing stays at the transform level, so
	// every result is byte-identical to a private walk.
	shared *core.SharedTrie

	// anyMobile records whether the roster has a mobile platform, so the
	// shared front end converts each desktop text to GLES eagerly, while
	// the raw (pre-canonicalization) lowering is still in hand.
	anyMobile bool

	// store, when non-nil, is the persistent layer under the LRUs (see
	// Options.Store); storeWriteErrs counts degraded write-throughs and
	// undecodable-but-checksummed payloads (store.write_errors).
	store          *store.Store
	storeWriteErrs *telemetry.Counter

	// fingerprint derives the program identity that keys driver compiles
	// (the compile cache and the persistent store). The default is the
	// name-insensitive core.FingerprintCanonical — sound because driver
	// pipelines and cost models are pure functions of program structure —
	// so structurally identical shaders from different frontends share
	// compiles; tests override it with core.FingerprintIR to pin that
	// scores are fingerprint-choice-independent.
	fingerprint func(*ir.Program) string

	// reg is the session's telemetry registry (Options.Telemetry, or a
	// private one), the single sink every pipeline layer reports into;
	// the counters below are its pre-resolved handles for the hot paths.
	// session.measure.{hits,misses} count measurement-cache traffic at
	// the session level (an inflight wait is a hit, though the scores
	// lru never saw it); the cache.<name>.* counters are fed by each
	// cache's lru sink (instrumentCache).
	reg                  *telemetry.Registry
	measHits, measMisses *telemetry.Counter
}

// frontEnd is the driver front end's cached work for one distinct source
// text: the lowering at its canonicalization fixed point, the IR
// fingerprint that keys its driver compiles, and — for driver-visible
// desktop texts when the session has mobile platforms — the GLES
// conversion, produced from the same single parse (the conversion
// consumes the raw lowering, exactly what ToES does internally). All
// fields are immutable once cached; drivers receive clones.
type frontEnd struct {
	prog   *ir.Program
	fp     string
	es     string
	esHash string
}

// compiledKey identifies one driver compile: the vendor pipeline that ran
// and the fingerprint of the canonical program it consumed.
type compiledKey struct {
	vendor string
	fp     string
}

// enumKey identifies one enumeration: the resolved source language and
// the source content hash (the base IR is a pure function of both).
type enumKey struct {
	lang core.Lang
	hash string
}

type measKey struct {
	vendor string
	hash   string
	cfg    harness.Config
}

// measEntry is one in-flight measurement: the goroutine that wins the
// inflight reservation measures (as part of its platform batch) and
// closes done; everyone else waits on done and reads the result. Entries
// that fail keep their error and stay in the inflight map, so a failing
// key fails every later lookup the way the old once-per-key cache did.
type measEntry struct {
	done chan struct{}
	ns   float64
	err  error
}

// NewSession creates a measurement session for the given platforms.
func NewSession(platforms []*gpu.Platform, opts Options) *Session {
	return newSession(platforms, opts, CacheBound)
}

// newSession is NewSession with every session LRU bounded to `bound`
// entries (variants for the enumeration cache), so tests can drive
// eviction with a tiny budget.
func newSession(platforms []*gpu.Platform, opts Options, bound int) *Session {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	anyMobile := false
	for _, pl := range platforms {
		if pl.Mobile {
			anyMobile = true
		}
	}
	reg := opts.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	s := &Session{
		cfg:            opts.Cfg,
		workers:        workers,
		platforms:      platforms,
		anyMobile:      anyMobile,
		fingerprint:    core.FingerprintCanonical,
		shared:         core.NewSharedTrie(),
		scores:         lru.New[measKey, float64](bound),
		lowered:        lru.New[string, *frontEnd](bound),
		compiled:       lru.New[compiledKey, *gpu.Compiled](bound),
		enums:          lru.New[enumKey, *core.VariantSet](bound),
		reg:            reg,
		storeWriteErrs: reg.Counter("store.write_errors"),
		measHits:       reg.Counter("session.measure.hits"),
		measMisses:     reg.Counter("session.measure.misses"),
	}
	instrumentCache(s.scores, reg, "scores")
	instrumentCache(s.lowered, reg, "lowered")
	instrumentCache(s.compiled, reg, "compile")
	instrumentCache(s.enums, reg, "enum")
	if opts.Store != nil {
		s.store = opts.Store
		s.store.Instrument(
			reg.Counter("cache.store.hits"),
			reg.Counter("cache.store.misses"),
			reg.Counter("store.writes"),
			reg.Counter("cache.store.evictions"),
			reg.Counter("store.corrupt"),
		)
	}
	s.shared.Instrument(reg.Counter("enum.shared.hits"), reg.Counter("enum.shared.misses"))
	if s.store != nil {
		s.shared.SetPersist(trieStore{st: s.store, writeErrs: s.storeWriteErrs})
	}
	return s
}

// instrumentCache attaches one session cache's hit/miss/eviction/
// rejection sinks to the uniform cache.<name>.{hits,misses,evictions,
// rejected} registry counters.
func instrumentCache[K comparable, V any](c *lru.Cache[K, V], reg *telemetry.Registry, name string) {
	c.Instrument(
		reg.Counter("cache."+name+".hits"),
		reg.Counter("cache."+name+".misses"),
		reg.Counter("cache."+name+".evictions"),
		reg.Counter("cache."+name+".rejected"),
	)
}

// Telemetry returns the session's registry: Options.Telemetry when one
// was supplied, else the private registry the session created. Attach a
// tracer to it (telemetry.Registry.SetTracer) to capture the sweep's
// spans; call Metrics for a snapshot with occupancy gauges refreshed.
func (s *Session) Telemetry() *telemetry.Registry { return s.reg }

// Metrics refreshes the cache.<name>.{entries,cost,bound} occupancy
// gauges and returns a snapshot of the session's telemetry registry —
// the consolidated form of every per-layer counter and histogram the
// pipeline recorded. Cache accounting reads from it: the
// session.measure.{hits,misses} counters (measurements served from cache,
// including waits on a measurement another shader had in flight, vs
// actually run), the cache.<name>.{hits,misses,evictions} counters, and
// the occupancy gauges.
func (s *Session) Metrics() *telemetry.Snapshot {
	occupancy := func(name string, entries, cost, bound int) {
		s.reg.Gauge("cache." + name + ".entries").Set(int64(entries))
		s.reg.Gauge("cache." + name + ".cost").Set(int64(cost))
		s.reg.Gauge("cache." + name + ".bound").Set(int64(bound))
	}
	occupancy("scores", s.scores.Len(), s.scores.Cost(), s.scores.Bound())
	occupancy("lowered", s.lowered.Len(), s.lowered.Cost(), s.lowered.Bound())
	occupancy("compile", s.compiled.Len(), s.compiled.Cost(), s.compiled.Bound())
	occupancy("enum", s.enums.Len(), s.enums.Cost(), s.enums.Bound())
	return s.reg.Snapshot()
}

// Config returns the session's measurement protocol.
func (s *Session) Config() harness.Config { return s.cfg }

// Platforms returns the session's platform roster.
func (s *Session) Platforms() []*gpu.Platform { return s.platforms }

// Workers returns the session's worker-pool size: the shader fan-out of
// Sweep and the shard width of the memoized variant enumeration.
func (s *Session) Workers() int { return s.workers }

// Variants returns the handle's variant enumeration through the session's
// LRU cache, enumerating on a miss with the trie walk sharded across the
// session's worker pool. The bool reports a cache hit. Results are
// identical for any worker count, so sharing across callers is sound.
// An enumeration whose variant count exceeds the cache bound is computed
// but not admitted (it would evict everything else); it stays memoized on
// the handle itself, so only fresh handles for such a shader re-enumerate.
func (s *Session) Variants(h *core.Shader) (*core.VariantSet, bool) {
	key := enumKey{lang: h.Lang, hash: h.Hash}
	if vs, ok := s.enums.Get(key); ok {
		return vs, true
	}
	vs := h.VariantsSharedT(s.reg, s.workers, s.shared)
	s.enums.Add(key, vs, vs.Unique())
	return vs, false
}

// SharedTrie returns the session's cross-shader enumeration table, the
// one every Variants walk runs through.
func (s *Session) SharedTrie() *core.SharedTrie { return s.shared }

// frontEndFor returns the cached driver-front-end work for one distinct
// source text: parsed and lowered once per cache residency across all
// platforms (the simulated drivers share one front end, as real drivers
// share Mesa's), converted to GLES while the raw lowering is in hand
// (desktop texts in a mobile-roster session — ToES is exactly ESFromIR of
// the text's lowering, so sharing the parse is output-identical), then
// taken through the vendor-independent first canonicalization fixed point
// every driver pipeline starts with, and fingerprinted once for the
// compile cache. Canonicalization is idempotent, so handing each driver a
// clone of the fixed point leaves its output bit-identical while the
// expensive multi-iteration run happens once instead of once per
// platform. handle, when non-nil, marks src as the exact text the
// handle's IR was lowered from, letting a miss clone the cached IR
// instead of re-parsing; generated text always goes through the driver
// front end so it keeps the paper's textual-interchange artefacts.
// convertES is false for texts that are themselves GLES conversions (the
// mobile drivers' effective sources — never converted again). fe.prog is
// shared, so callers must clone it before handing it to a driver pipeline
// that transforms it in place (see compiledFor). The cache is
// LRU-bounded: after eviction (or on a racing miss) the work is redone,
// bit-identically, so eviction trades only time for memory. The cache
// keeps a clone of the canonical program, so it holds none of the
// instructions the parse and the canonicalization dropped; the fixed
// point's IDs are dense, so the clone prints and fingerprints the same.
// The lowering itself is released once cloned, so its chunks serve the
// next miss's parse.
// Each stage has its own span: driver parse, es convert, canonicalize
// and fingerprint.
func (s *Session) frontEndFor(src, hash string, handle *core.Shader, convertES bool) (*frontEnd, error) {
	if fe, ok := s.lowered.Get(hash); ok {
		return fe, nil
	}
	var prog *ir.Program
	var err error
	span := s.reg.StartSpan("driver parse", "driver")
	if handle != nil {
		prog = handle.IR()
	} else {
		prog, err = parseForDriver(src)
	}
	span.End()
	if err != nil {
		return nil, err
	}
	fe := &frontEnd{}
	if convertES && s.anyMobile {
		// Convert before canonicalizing: the conversion must consume the
		// raw lowering, the exact program ToES would hand it.
		span = s.reg.StartSpan("es convert", "driver")
		fe.es, err = crossc.ESFromIR(prog, "mobile")
		fe.esHash = core.HashSource(fe.es)
		span.End()
		if err != nil {
			return nil, fmt.Errorf("mobile conversion: %w", err)
		}
	}
	span = s.reg.StartSpan("canonicalize", "driver")
	passes.Canonicalize(prog)
	fe.prog = prog.Clone()
	prog.Release()
	span.End()
	span = s.reg.StartSpan("fingerprint", "driver")
	fe.fp = s.fingerprint(fe.prog)
	span.End()
	s.lowered.Add(hash, fe, 1)
	return fe, nil
}

// compiledFor returns the platform's driver compile of a canonical
// lowering through the session compile cache, keyed by (vendor, IR
// fingerprint). Sharing is sound: the vendor pipeline and cost model are
// pure functions of the program, equal fingerprints mean structurally
// identical programs, and a Compiled is immutable once built — so a
// variant whose canonicalized lowering converged with an already-compiled
// variant's reuses its compile, once per platform instead of once per
// (variant, platform). The opening canonicalization of the vendor
// pipeline is skipped (CompileCanonical): the input is already the fixed
// point. fe.prog is shared by every platform and worker, so it is cloned
// for a platform that CompilesInPlace; a translating platform only reads
// it. The bool reports a cache hit; the error is a failed ingestion round
// trip, which is never cached.
func (s *Session) compiledFor(pl *gpu.Platform, fe *frontEnd) (*gpu.Compiled, bool, error) {
	// Hit/miss accounting rides on the cache's lru stats sink
	// (cache.compile.{hits,misses}): this lookup is the cache's only
	// reader, so the sink counts exactly these events.
	key := compiledKey{vendor: pl.Vendor, fp: fe.fp}
	if c, ok := s.compiled.Get(key); ok {
		return c, true, nil
	}
	if c, ok := s.storeGetCompiled(pl, fe.fp); ok {
		// Persistent-layer hit: another session (or a previous run of
		// this one) already ran this vendor compile. Promote it into the
		// memory cache; the vendor pipeline is skipped, so this is a hit.
		s.compiled.Add(key, c, 1)
		return c, true, nil
	}
	prog := fe.prog
	if pl.CompilesInPlace() {
		// A Compiled keeps no program, so the clone's storage serves the
		// next compile.
		prog = prog.CloneScratch()
		defer prog.Release()
	}
	c, err := pl.CompileCanonicalT(s.reg, prog)
	if err != nil {
		return nil, false, err
	}
	s.compiled.Add(key, c, 1)
	s.storePutCompiled(pl, fe.fp, c)
	return c, false, nil
}

func parseForDriver(src string) (*ir.Program, error) {
	prog, err := gpu.FrontEnd(src, "driver")
	if err != nil {
		return nil, fmt.Errorf("driver front end: %w", err)
	}
	return prog, nil
}

// resolveCompiled takes one driver-visible desktop text through the
// platform's front half: the shared front end (one parse serving the
// desktop lowering and the GLES conversion), the ES text's own front end
// on mobile, and the memoized vendor compile. handle, when non-nil, marks
// src as the exact text the handle's IR was lowered from.
func (s *Session) resolveCompiled(pl *gpu.Platform, src, hash string, handle *core.Shader) (*gpu.Compiled, bool, error) {
	fe, err := s.frontEndFor(src, hash, handle, true)
	if err != nil {
		return nil, false, fmt.Errorf("%s driver: %w", pl.Vendor, err)
	}
	if pl.Mobile {
		// The mobile driver consumes the converted ES text through its own
		// front end, exactly as MeasureSource does: the paper's pipeline
		// is textual past the conversion.
		fe, err = s.frontEndFor(fe.es, fe.esHash, nil, false)
		if err != nil {
			return nil, false, fmt.Errorf("%s driver: %w", pl.Vendor, err)
		}
	}
	return s.compiledFor(pl, fe)
}

// Sweep runs the exhaustive study over compiled handles: every distinct
// variant of every shader measured on every session platform, each
// distinct (vendor, source, protocol) measurement performed exactly once.
// Work is scheduled as (platform → batch of distinct compiled variants):
// per platform, a shader's session-cache misses are driver-compiled
// through the (vendor, IR fingerprint) compile cache and sampled in one
// harness.MeasureBatch pass. onEvent, when non-nil, receives per-shader
// progress (serialized). Results are deterministic: noise streams are
// seeded per (platform, source), independent of scheduling, batching, and
// caching — and byte-identical to independent per-variant
// harness.MeasureSource calls (the internal/oracle reference sweep),
// pinned corpus-wide by the harness-equivalence suite.
func (s *Session) Sweep(handles []*core.Shader, onEvent func(SweepEvent)) (*Sweep, error) {
	return s.SweepContext(context.Background(), handles, onEvent)
}

// SweepContext is Sweep under a cancellation context: when ctx is
// canceled the sweep stops starting new work — unclaimed shaders,
// per-platform measurement passes, and waits on other sweeps' in-flight
// measurements — and returns ctx's error. Cancellation never corrupts
// shared session state: a measurement batch this sweep has already
// reserved in the in-flight table runs to completion (it is what other
// concurrent sweeps may be waiting on), so a canceled client can never
// fail another client's measurements.
func (s *Session) SweepContext(ctx context.Context, handles []*core.Shader, onEvent func(SweepEvent)) (*Sweep, error) {
	return s.sweep(ctx, handles, onEvent)
}

// sweep is the study driver: the shader fan-out across the worker pool,
// error collection, and the serialized event stream around sweepShader.
// A canceled ctx stops shaders that have not started yet and is threaded
// into each per-shader run's own cancellation points. A panic in one
// shader's run becomes that shader's error: the process (a sweep daemon,
// say) keeps serving.
func (s *Session) sweep(ctx context.Context, handles []*core.Shader, onEvent func(SweepEvent)) (*Sweep, error) {
	results := make([]*ShaderResult, len(handles))
	errs := make([]error, len(handles))

	var wg sync.WaitGroup
	var done atomic.Int64
	var eventMu sync.Mutex
	var stats PipelineStats
	sem := make(chan struct{}, s.workers)
	for i, h := range handles {
		wg.Add(1)
		go func(i int, h *core.Shader) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			defer func() {
				if r := recover(); r != nil {
					errs[i] = fmt.Errorf("panic: %v", r)
				}
			}()
			if err := ctx.Err(); err != nil {
				errs[i] = err
				return
			}
			var ev SweepEvent
			results[i], ev, errs[i] = s.sweepShader(ctx, h)
			if errs[i] == nil {
				eventMu.Lock()
				ev.Shader = h.Name
				ev.Lang = h.Lang.String()
				ev.Done = int(done.Add(1))
				ev.Total = len(handles)
				ev.Workers = s.workers
				stats.Shaders++
				stats.UniqueVariants += ev.UniqueVariants
				stats.Measured += int64(ev.Measured)
				stats.CacheHits += int64(ev.CacheHits)
				stats.CompileHits += int64(ev.CompileHits)
				stats.EnumMS += ev.EnumMS
				stats.MeasureMS += ev.MeasureMS
				if onEvent != nil {
					onEvent(ev)
				}
				eventMu.Unlock()
			}
		}(i, h)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", handles[i].Name, err)
		}
	}
	stats.Metrics = s.Metrics()
	return &Sweep{Platforms: s.platforms, Results: results, Cfg: s.cfg, Stats: stats}, nil
}

// origBaseline returns the unmodified-original baseline for a handle: the
// source the driver would see without the offline optimizer — the
// author's GLSL text, or for translated frontends (WGSL, HLSL) the
// unoptimized translation, which the enumeration produces as the
// all-flags-off variant (in that case the variant loop shares the
// measurement through the session cache). The returned handle is non-nil
// only when the text is exactly what the handle's IR was lowered from.
func origBaseline(h *core.Shader, vs *core.VariantSet) (src, hash string, handle *core.Shader) {
	if h.Lang != core.LangGLSL {
		v := vs.VariantFor(core.NoFlags)
		return v.Source, v.Hash, nil
	}
	return h.Source, h.Hash, h
}

// sweepShader measures one handle's original baseline and every distinct
// variant on every session platform, reporting per-shader sweep progress
// (variant counts, enumeration and measurement cost, cache traffic). Work
// is grouped per platform: each platform's uncached texts are compiled
// through the session compile cache and sampled in one batched harness
// pass. Cancellation is honored between platform passes, never inside
// one (a reserved in-flight batch always completes; see SweepContext).
func (s *Session) sweepShader(ctx context.Context, h *core.Shader) (r *ShaderResult, ev SweepEvent, err error) {
	span := s.reg.StartSpan("sweep "+h.Name, "sweep")
	defer span.End()
	enumStart := time.Now()
	vs, enumCached := s.Variants(h)
	ev.EnumCached = enumCached
	ev.EnumMS = float64(time.Since(enumStart).Nanoseconds()) / 1e6
	ev.UniqueVariants = vs.Unique()
	origSrc, origHash, origHandle := origBaseline(h, vs)
	r = &ShaderResult{
		Handle:    h,
		Variants:  vs,
		OrigNS:    map[string]float64{},
		VariantNS: map[string]map[string]float64{},
	}
	measStart := time.Now()
	for _, pl := range s.platforms {
		if err := ctx.Err(); err != nil {
			return nil, ev, err
		}
		origNS, perVariant, err := s.measurePlatform(ctx, pl, origSrc, origHash, origHandle, vs, &ev)
		if err != nil {
			return nil, ev, err
		}
		r.OrigNS[pl.Vendor] = origNS
		r.VariantNS[pl.Vendor] = perVariant
	}
	ev.MeasureMS = float64(time.Since(measStart).Nanoseconds()) / 1e6
	return r, ev, nil
}

// measurePlatform measures one shader's original plus every distinct
// variant on one platform, batching the session-cache misses into a
// single harness.MeasureBatch pass. Scores already cached — or being
// measured by a concurrently-sweeping shader — are reused; misses are
// reserved in the inflight map, resolved through the compile cache, and
// sampled together. Every reserved entry is completed exactly once, on
// success, failure, or panic (which is re-raised once the entries it
// stranded are failed), so waiters never block past this call. ctx is
// consulted only while waiting on entries *other* sweeps own: an entry
// this call reserved is always driven to completion regardless of
// cancellation, because concurrent sweeps may already be blocked on it.
func (s *Session) measurePlatform(ctx context.Context, pl *gpu.Platform, origSrc, origHash string, origHandle *core.Shader, vs *core.VariantSet, ev *SweepEvent) (float64, map[string]float64, error) {
	type slot struct {
		src    string
		hash   string
		handle *core.Shader
		entry  *measEntry // non-nil when owned or awaited
		owned  bool
		closed bool // owned entry completed
		ns     float64
		done   bool
	}
	slots := make([]slot, 0, 1+len(vs.Variants))
	slots = append(slots, slot{src: origSrc, hash: origHash, handle: origHandle})
	for _, v := range vs.Variants {
		slots = append(slots, slot{src: v.Source, hash: v.Hash})
	}

	// fail completes an owned entry with an error. The entry stays in the
	// inflight map, failing later lookups the way the old error-caching
	// did. A panic anywhere below fails every owned entry not yet
	// completed before it propagates, so no waiter is stranded.
	var owned []int
	var firstErr error
	fail := func(sl *slot, err error) {
		if firstErr == nil {
			firstErr = err
		}
		sl.entry.err = err
		sl.closed = true
		close(sl.entry.done)
	}
	defer func() {
		if r := recover(); r != nil {
			err := fmt.Errorf("panic measuring on %s: %v", pl.Vendor, r)
			for _, i := range owned {
				if sl := &slots[i]; !sl.closed {
					fail(sl, err)
				}
			}
			panic(r)
		}
	}()

	// Classify: cached score, our measurement to run, or someone else's
	// in-flight measurement to wait for (which counts as a cache hit, as
	// blocking on the old once-per-key entry did).
	for i := range slots {
		sl := &slots[i]
		key := measKey{vendor: pl.Vendor, hash: sl.hash, cfg: s.cfg}
		if ns, ok := s.scores.Get(key); ok {
			sl.ns, sl.done = ns, true
			s.measHits.Inc()
			ev.CacheHits++
			continue
		}
		if ns, ok := s.storeGetScore(pl.Vendor, sl.hash); ok {
			// Persistent-layer hit: the score was measured by a previous
			// run under this exact (vendor, source, protocol) key, and
			// the harness is deterministic, so it is bit-identical to a
			// fresh measurement. Promote it so later lookups stay hot.
			s.scores.Add(key, ns, 1)
			sl.ns, sl.done = ns, true
			s.measHits.Inc()
			ev.CacheHits++
			continue
		}
		e, loaded := s.inflight.LoadOrStore(key, &measEntry{done: make(chan struct{})})
		sl.entry = e.(*measEntry)
		if loaded {
			s.measHits.Inc()
			ev.CacheHits++
			continue
		}
		if ns, ok := s.scores.Peek(key); ok {
			// An owner finished after the scores miss above: it added
			// the score before deleting its entry, which is why this
			// reservation succeeded. Complete ours with that score.
			sl.ns, sl.done = ns, true
			sl.entry.ns = ns
			close(sl.entry.done)
			s.inflight.Delete(key)
			s.measHits.Inc()
			ev.CacheHits++
			continue
		}
		sl.owned = true
		owned = append(owned, i)
		s.measMisses.Inc()
		ev.Measured++
	}

	// Resolve and compile the owned slots, then sample them as one batch.
	// A slot that fails to resolve fails its entry; the rest of the batch
	// still completes so other shaders waiting on shared variants are
	// never stranded.
	items := make([]harness.BatchItem, 0, len(owned))
	live := make([]int, 0, len(owned))
	for _, i := range owned {
		sl := &slots[i]
		compiled, hit, err := s.resolveCompiled(pl, sl.src, sl.hash, sl.handle)
		if err != nil {
			if sl.handle != nil {
				err = fmt.Errorf("original on %s: %w", pl.Vendor, err)
			} else {
				err = fmt.Errorf("variant %s on %s: %w", sl.hash, pl.Vendor, err)
			}
			fail(sl, err)
			continue
		}
		if hit {
			ev.CompileHits++
		}
		items = append(items, harness.BatchItem{Compiled: compiled, SrcForSeed: sl.src})
		live = append(live, i)
	}
	for k, m := range harness.MeasureBatchT(s.reg, pl, items, s.cfg) {
		sl := &slots[live[k]]
		sl.ns, sl.done = m.Score(), true
		key := measKey{vendor: pl.Vendor, hash: sl.hash, cfg: s.cfg}
		s.scores.Add(key, sl.ns, 1)
		s.storePutScore(pl.Vendor, sl.hash, sl.ns)
		sl.entry.ns = sl.ns
		sl.closed = true
		close(sl.entry.done)
		s.inflight.Delete(key)
	}

	// Collect measurements other sweeps (or earlier duplicate slots of
	// this one) had in flight. Our own batch is already complete, so this
	// cannot deadlock on ourselves. This wait is the one place
	// cancellation may interrupt measurement: the entries belong to other
	// sweeps, which complete them on their own schedule whether or not we
	// stop listening.
	for i := range slots {
		sl := &slots[i]
		if sl.done || sl.owned {
			continue
		}
		select {
		case <-sl.entry.done:
		case <-ctx.Done():
			if firstErr == nil {
				firstErr = ctx.Err()
			}
			continue
		}
		if sl.entry.err != nil {
			if firstErr == nil {
				firstErr = sl.entry.err
			}
			continue
		}
		sl.ns, sl.done = sl.entry.ns, true
	}
	if firstErr != nil {
		return 0, nil, firstErr
	}

	perVariant := make(map[string]float64, len(vs.Variants))
	for i, v := range vs.Variants {
		perVariant[v.Hash] = slots[1+i].ns
	}
	return slots[0].ns, perVariant, nil
}

// --- Analyses ---

// FlagSums holds one running sum per flag combination, indexed by flag
// value: the accumulator behind every best-static-set argmax.
type FlagSums [1 << passes.NumFlags]float64

// AddSpeedups adds r's speedup against baseNS on vendor to the sum of
// every flag combination, reading each distinct variant's score once and
// adding it at every combination that produces the variant. Each
// combination receives exactly one addition per call, so summing results
// in a fixed order gives the same bits as a per-combination scan.
func (s *FlagSums) AddSpeedups(r *ShaderResult, vendor string, baseNS float64) {
	times := r.VariantNS[vendor]
	for _, v := range r.Variants.Variants {
		sp := harness.Speedup(baseNS, times[v.Hash])
		for _, f := range v.FlagSets {
			s[f] += sp
		}
	}
}

// Argmax returns the combination whose mean (sum over n) is largest and
// that mean, when it beats floor. Ties resolve to the first combination
// in ascending flag-value order.
func (s *FlagSums) Argmax(n int, floor float64) (core.Flags, float64) {
	bestFlags, bestMean := core.NoFlags, floor
	for f, sum := range s {
		if mean := sum / float64(n); mean > bestMean {
			bestFlags, bestMean = core.Flags(f), mean
		}
	}
	return bestFlags, bestMean
}

// BestStaticFlagsOver returns the single flag combination maximizing the
// mean speedup vs the original source across a subset of results for the
// vendor — Table I restricted to a result group, the primitive behind the
// per-language / per-backend study split (internal/analysis groups
// results by language and platforms by ingestion format and calls this
// per group). Ties resolve to the first combination in ascending
// flag-value order, so the result is deterministic for a fixed score set.
func BestStaticFlagsOver(results []*ShaderResult, vendor string) (core.Flags, float64) {
	var sums FlagSums
	for _, r := range results {
		sums.AddSpeedups(r, vendor, r.OrigNS[vendor])
	}
	return sums.Argmax(len(results), -1e18)
}

// BestStaticFlags returns the single flag combination maximizing the mean
// speedup across all shaders for the vendor (Table I).
func (s *Sweep) BestStaticFlags(vendor string) (core.Flags, float64) {
	return BestStaticFlagsOver(s.Results, vendor)
}

// MeanSpeedups computes Figure 5's three bars for a vendor: best per
// shader, default LunarGlass flags, and the best static flag set.
type MeanSpeedups struct {
	Vendor     string
	Best       float64
	Default    float64
	BestStatic float64
	StaticSet  core.Flags
}

// MeanSpeedups returns the Fig. 5 aggregates for a vendor.
func (s *Sweep) MeanSpeedups(vendor string) MeanSpeedups {
	return MeanSpeedupsOver(s.Results, vendor)
}

// MeanSpeedupsOver computes the Fig. 5 aggregates for a vendor over a
// subset of results — the per-group form of MeanSpeedups, with the best
// static set learned on the same subset.
func MeanSpeedupsOver(results []*ShaderResult, vendor string) MeanSpeedups {
	staticSet, staticMean := BestStaticFlagsOver(results, vendor)
	out := MeanSpeedups{Vendor: vendor, BestStatic: staticMean, StaticSet: staticSet}
	for _, r := range results {
		out.Best += r.BestSpeedup(vendor)
		out.Default += r.SpeedupFor(vendor, core.DefaultFlags)
	}
	n := float64(len(results))
	out.Best /= n
	out.Default /= n
	return out
}

// PerShaderSpeedups returns, for each shader, (best, default, best-static)
// speedups on a vendor, sorted descending by best — the data behind
// Figures 6 and 7.
type PerShader struct {
	Name                      string
	Best, Default, BestStatic float64
}

// PerShaderSpeedups computes the per-shader series for a vendor.
func (s *Sweep) PerShaderSpeedups(vendor string) []PerShader {
	staticSet, _ := s.BestStaticFlags(vendor)
	out := make([]PerShader, 0, len(s.Results))
	for _, r := range s.Results {
		out = append(out, PerShader{
			Name:       r.Name(),
			Best:       r.BestSpeedup(vendor),
			Default:    r.SpeedupFor(vendor, core.DefaultFlags),
			BestStatic: r.SpeedupFor(vendor, staticSet),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Best > out[j].Best })
	return out
}

// Top30Mean returns Figure 6's value: the mean best speedup over the 30
// most-improved shaders.
func (s *Sweep) Top30Mean(vendor string) float64 {
	per := s.PerShaderSpeedups(vendor)
	n := 30
	if len(per) < n {
		n = len(per)
	}
	sum := 0.0
	for _, p := range per[:n] {
		sum += p.Best
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// FlagApplicability is Figure 8's three bars for one flag.
type FlagApplicability struct {
	Flag core.Flags
	// Total shaders studied (blue).
	Total int
	// ChangesCode counts shaders where toggling the flag changes the
	// generated source for some setting of the other flags (red).
	ChangesCode int
	// InOptimalSet counts, per Sweep.Platforms entry, shaders where the
	// flag is in at least half of the optimal 10% of variants (green).
	InOptimalSet []int
}

// FlagApplicabilities computes Fig. 8 for all flags.
func (s *Sweep) FlagApplicabilities() []FlagApplicability {
	flags := passes.FlagList()
	out := make([]FlagApplicability, len(flags))
	for i, f := range flags {
		out[i] = FlagApplicability{Flag: f, Total: len(s.Results), InOptimalSet: make([]int, len(s.Platforms))}
	}
	for _, r := range s.Results {
		for i, f := range flags {
			if r.Variants.FlagChangesOutput(f) {
				out[i].ChangesCode++
			}
		}
		for p, pl := range s.Platforms {
			top := optimalTenth(r, pl.Vendor)
			for i, f := range flags {
				if flagInOptimalTenth(top, f) {
					out[i].InOptimalSet[p]++
				}
			}
		}
	}
	return out
}

// optimalTenth returns the fastest 10% (at least one) of a shader's
// variants on a vendor, ties broken by hash.
func optimalTenth(r *ShaderResult, vendor string) []*core.Variant {
	variants := append([]*core.Variant(nil), r.Variants.Variants...)
	times := r.VariantNS[vendor]
	sort.Slice(variants, func(i, j int) bool {
		if times[variants[i].Hash] != times[variants[j].Hash] {
			return times[variants[i].Hash] < times[variants[j].Hash]
		}
		return variants[i].Hash < variants[j].Hash
	})
	return variants[:(len(variants)+9)/10] // ceil(10%), at least 1
}

// flagInOptimalTenth implements the paper's Fig. 8 green criterion: the
// flag is included for at least half of the optimal 10% of variants for
// that shader.
func flagInOptimalTenth(top []*core.Variant, f core.Flags) bool {
	withFlag := 0
	for _, v := range top {
		// A variant corresponds to many flag settings; attribute the flag
		// if a strict majority of the settings that produce this variant
		// set it. A flag that never changes the output splits every
		// variant's settings exactly in half, so a tie must not count.
		set := 0
		for _, fs := range v.FlagSets {
			if fs.Has(f) {
				set++
			}
		}
		if set*2 > len(v.FlagSets) {
			withFlag++
		}
	}
	return withFlag*2 >= len(top)
}

// FlagIsolation computes Figure 9: the speedup distribution of each flag
// alone relative to the all-off LunarGlass baseline (so codegen artefacts
// cancel out, §VI-D).
func (s *Sweep) FlagIsolation(vendor string) map[core.Flags][]float64 {
	out := map[core.Flags][]float64{}
	for _, f := range passes.FlagList() {
		var speeds []float64
		for _, r := range s.Results {
			base := r.NSFor(vendor, core.NoFlags)
			solo := r.NSFor(vendor, f)
			speeds = append(speeds, harness.Speedup(base, solo))
		}
		out[f] = speeds
	}
	return out
}

// SpeedupDistribution returns the per-shader speedups of one flag set vs
// the original across all shaders (Fig. 3 right: the Mali histogram).
func (s *Sweep) SpeedupDistribution(vendor string, flags core.Flags) []float64 {
	var out []float64
	for _, r := range s.Results {
		out = append(out, r.SpeedupFor(vendor, flags))
	}
	return out
}

// ResultFor returns the result for a named shader, or nil.
func (s *Sweep) ResultFor(name string) *ShaderResult {
	for _, r := range s.Results {
		if r.Name() == name {
			return r
		}
	}
	return nil
}
