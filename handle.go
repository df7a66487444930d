package shaderopt

import (
	"shaderopt/internal/core"
	"shaderopt/internal/exec"
	"shaderopt/internal/harness"
	"shaderopt/internal/ir"
	"shaderopt/internal/passes"
	"shaderopt/internal/search"
	"shaderopt/internal/sem"
	"shaderopt/internal/store"
)

// Option configures Compile and NewSession. Compile honors WithLang;
// NewSession honors all options.
type Option func(*options)

type options struct {
	lang      Lang
	cfg       Protocol
	workers   int
	platforms []*Platform
	telemetry *Telemetry
	store     *store.Store
}

func defaultOptions() options {
	return options{lang: LangAuto, cfg: DefaultProtocol()}
}

// WithLang pins the source language (the default auto-detects).
func WithLang(lang Lang) Option { return func(o *options) { o.lang = lang } }

// WithProtocol sets the session's measurement protocol (the default is
// DefaultProtocol).
func WithProtocol(cfg Protocol) Option { return func(o *options) { o.cfg = cfg } }

// WithWorkers bounds the session's parallelism (0 = GOMAXPROCS): the
// shader fan-out of Sweep and the shard width of the memoized variant
// enumeration.
func WithWorkers(n int) Option { return func(o *options) { o.workers = n } }

// WithPlatforms sets the session's platform roster (the default is all
// five).
func WithPlatforms(platforms ...*Platform) Option {
	return func(o *options) { o.platforms = platforms }
}

// WithTelemetry attaches a telemetry registry: every pipeline layer the
// call drives reports into it — frontend parse spans and counters for
// Compile, plus enumeration, cache, driver-compile, and harness metrics
// for a NewSession sweep — and a tracer attached to the registry
// (Telemetry.SetTracer) receives the pipeline's spans. Instrumentation
// never changes results: a traced sweep's scores are byte-identical to
// an untraced one's. Without this option a session still keeps a private
// registry, readable through Session.Telemetry.
func WithTelemetry(reg *Telemetry) Option {
	return func(o *options) { o.telemetry = reg }
}

// Store is a persistent content-addressed on-disk cache (see
// internal/store): the durable layer WithStore slots under a session's
// in-memory caches, holding driver compiles keyed by (vendor, canonical
// IR fingerprint) and measurement scores keyed by (vendor, source hash,
// protocol). Open one with OpenStore, and call its Sync before exit when
// the entries must survive a power loss: writes are visible to the
// handle at once but durable only from the next Sync.
type Store = store.Store

// OpenStore opens (creating if needed) a persistent store rooted at dir,
// bounded to maxBytes of on-disk entry data (<= 0 means unbounded).
// A handle is safe to share between sessions, and handles in several
// processes may share dir, but each sees only the entries on disk when
// it opened plus its own: an entry another handle writes later is a miss
// for it (a recomputation, never a wrong value), and so are the later
// entries of a handle whose segment another handle's compaction removed.
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	return store.Open(dir, maxBytes)
}

// WithStore layers a persistent store under the session's in-memory
// caches: memory miss → store read → compute → write-through. A session
// over a warm store re-serves previously computed driver compiles and
// measurement scores bit-identically with zero vendor-pipeline runs and
// zero harness sampling. Store traffic reports into the session's
// telemetry registry (cache.store.{hits,misses,evictions}, store.*).
func WithStore(st *Store) Option {
	return func(o *options) { o.store = st }
}

// Shader is a compiled handle: source parsed and lowered exactly once,
// with every later operation — optimization, variant enumeration,
// measurement, rendering — derived from the cached IR by
// clone-then-transform. Handles are safe for concurrent use.
type Shader struct {
	h *core.Shader
}

// Compile parses and lowers fragment shader source (GLSL, WGSL, or HLSL,
// auto-detected unless pinned with WithLang) once and returns the handle.
func Compile(src, name string, opts ...Option) (*Shader, error) {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	h, err := core.CompileT(o.telemetry, src, name, o.lang)
	if err != nil {
		return nil, err
	}
	return &Shader{h: h}, nil
}

// Name returns the shader's name.
func (s *Shader) Name() string { return s.h.Name }

// Lang returns the resolved (never LangAuto) source language.
func (s *Shader) Lang() Lang { return s.h.Lang }

// Source returns the original source text.
func (s *Shader) Source() string { return s.h.Source }

// SourceHash returns the content hash of the original source.
func (s *Shader) SourceHash() string { return s.h.Hash }

// Optimize runs the flagged passes on a clone of the cached IR and
// returns optimized desktop GLSL — the interchange form every simulated
// driver consumes.
func (s *Shader) Optimize(flags Flags) string { return s.h.Optimize(flags) }

// Variants enumerates all 256 flag combinations from the cached IR and
// deduplicates the distinct outputs (Fig. 4c). The walk is memoized over
// the pass trie, so each distinct intermediate IR is transformed once and
// codegen runs once per distinct result. The enumeration runs once per
// handle and is cached; callers share the result.
func (s *Shader) Variants() *VariantSet { return s.h.Variants() }

// VariantsT is Variants with a telemetry registry observing the
// enumeration: the walk that actually runs (the first per handle)
// records its span and the trie's node/merge/collapse counters.
func (s *Shader) VariantsT(reg *Telemetry) *VariantSet { return s.h.VariantsSharedT(reg, 1, nil) }

// ToGLSL returns the driver-visible desktop GLSL: the original text for
// GLSL input, or the cached unoptimized translation for WGSL and HLSL
// input.
func (s *Shader) ToGLSL() string { return s.h.GLSL() }

// Emit serializes the shader's unoptimized IR through the given codegen
// backend. Text backends (GLSL, MSL) return source bytes; BackendSPIRV
// returns a little-endian binary SPIR-V module.
func (s *Shader) Emit(b Backend) ([]byte, error) { return s.h.Emit(b) }

// EmitOptimized runs the flagged passes on a clone of the cached IR and
// serializes the result through the given backend.
func (s *Shader) EmitOptimized(flags Flags, b Backend) ([]byte, error) {
	return s.h.EmitOptimized(flags, b)
}

// Measure times the shader's driver-visible GLSL on a platform under the
// protocol: the original text for GLSL input, the cached unoptimized
// translation for WGSL and HLSL input (the text a driver would see).
func (s *Shader) Measure(pl *Platform, cfg Protocol) (*Measurement, error) {
	return harness.MeasureSource(pl, s.h.GLSL(), cfg)
}

// Render interprets the shader functionally for every pixel of a w×h
// image with default-initialized uniforms (0.5 floats, the patterned
// texture) and uv varying over [0,1]², reusing the cached IR. It returns
// RGBA rows — handy for visually confirming optimization equivalence,
// including across frontends.
func (s *Shader) Render(w, h int, flags Flags) ([][][4]float64, error) {
	prog := s.h.IR()
	if flags != NoFlags {
		passes.Run(prog, flags)
	}
	return renderProgram(prog, w, h)
}

func renderProgram(prog *ir.Program, w, h int) ([][][4]float64, error) {
	env := harness.DefaultEnv(prog)
	img := make([][][4]float64, h)
	for y := 0; y < h; y++ {
		img[y] = make([][4]float64, w)
		for x := 0; x < w; x++ {
			u := (float64(x) + 0.5) / float64(w)
			v := (float64(y) + 0.5) / float64(h)
			for _, in := range prog.Inputs {
				if in.Type.Equal(sem.Vec2) {
					env.Inputs[in.Name] = ir.FloatConst(u, v)
				}
			}
			res, err := exec.Run(prog, env)
			if err != nil {
				return nil, err
			}
			var px [4]float64
			if !res.Discarded {
				for _, out := range prog.Outputs {
					val := res.Outputs[out.Name]
					for i := 0; i < val.Len() && i < 4; i++ {
						px[i] = val.Float(i)
					}
					if val.Len() < 4 {
						px[3] = 1
					}
					break
				}
			}
			img[y][x] = px
		}
	}
	return img, nil
}

// Session owns the shared state of a measurement campaign: the protocol,
// the platform roster, worker parallelism, a concurrency-safe measurement
// cache keyed by (vendor, source hash, protocol), and a cached
// ES-conversion table. Reusing one Session across sweeps and shaders means
// each distinct variant is measured exactly once per platform per
// protocol, no matter how many flag sets or shaders generate it.
type Session struct {
	inner *search.Session
	lang  Lang
}

// NewSession creates a measurement session. Options: WithProtocol,
// WithWorkers, WithPlatforms, WithTelemetry, WithLang (the default
// language for Session.Compile).
func NewSession(opts ...Option) *Session {
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	platforms := o.platforms
	if len(platforms) == 0 {
		platforms = Platforms()
	}
	return &Session{
		inner: search.NewSession(platforms, search.Options{
			Cfg:       o.cfg,
			Workers:   o.workers,
			Telemetry: o.telemetry,
			Store:     o.store,
		}),
		lang: o.lang,
	}
}

// Compile parses and lowers source once under the session's default
// language (override per call with Compile and WithLang). The parse
// reports into the session's telemetry registry.
func (s *Session) Compile(src, name string) (*Shader, error) {
	return Compile(src, name, WithLang(s.lang), WithTelemetry(s.inner.Telemetry()))
}

// Protocol returns the session's measurement protocol.
func (s *Session) Protocol() Protocol { return s.inner.Config() }

// Platforms returns the session's platform roster.
func (s *Session) Platforms() []*Platform { return s.inner.Platforms() }

// Workers returns the session's worker-pool size.
func (s *Session) Workers() int { return s.inner.Workers() }

// Telemetry returns the session's registry — the one passed through
// WithTelemetry, or the private registry the session created.
func (s *Session) Telemetry() *Telemetry { return s.inner.Telemetry() }

// Metrics refreshes the cache-occupancy gauges and snapshots the
// session's telemetry registry: every counter, gauge, and duration
// histogram the pipeline layers recorded. Cache accounting lives there:
// session.measure.{hits,misses} count measurements served from cache vs
// run, cache.<name>.{hits,misses,evictions} count each session cache's
// traffic (scores, lowered, compile, enum), and the
// cache.<name>.{entries,cost,bound} gauges give its occupancy. Render it
// with TelemetrySnapshot.Table.
func (s *Session) Metrics() *TelemetrySnapshot { return s.inner.Metrics() }

// Variants returns a shader's variant enumeration through the session's
// LRU cache, sharding the memoized trie walk across the session's worker
// pool on a miss. Results are independent of the worker count.
func (s *Session) Variants(sh *Shader) *VariantSet {
	vs, _ := s.inner.Variants(sh.h)
	return vs
}

// SweepEvent is one per-shader progress report streamed from a running
// sweep.
type SweepEvent = search.SweepEvent

// Sweep runs the exhaustive study (256 flag combinations per shader) over
// compiled handles on the session's platforms, measuring each distinct
// variant exactly once. Work is scheduled as (platform → batch of
// distinct compiled variants): per platform, a shader's uncached variants
// are driver-compiled through the session compile cache and sampled in
// one batched harness pass; scores are byte-identical to the per-variant
// pipeline. onEvent, when non-nil, receives per-shader progress as
// shaders complete (callbacks are serialized); pass nil to run silently.
func (s *Session) Sweep(shaders []*Shader, onEvent func(SweepEvent)) (*SweepResult, error) {
	handles := make([]*core.Shader, len(shaders))
	for i, sh := range shaders {
		handles[i] = sh.h
	}
	return s.inner.Sweep(handles, onEvent)
}
