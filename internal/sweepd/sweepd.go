// Package sweepd is the sweep service: an HTTP/JSON daemon that owns one
// shared measurement Session per protocol, all layered over a single
// persistent store and reporting into a single telemetry registry, and
// serves concurrent sweep requests from thin clients.
//
// Protocol: POST /sweep with a JSON SweepRequest (shader sources plus a
// named flag protocol) answers with a chunked newline-delimited JSON
// stream — one {"event": ...} line per completed shader as the sweep
// progresses, then one final {"results": ...} line carrying every score
// (or {"error": ...}; see StreamLine). Because every session shares one
// store and one in-flight measurement table, concurrent clients with
// overlapping corpora dedupe: each distinct (vendor, source, protocol)
// measurement runs at most once, and warm restarts serve entirely from
// the store. GET /healthz answers "ok"; GET /metricz renders the shared
// telemetry registry as the same table `-metrics` prints.
//
// The daemon binary is cmd/sweepd; cmd/sweep -server <addr> is the
// matching client.
package sweepd

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"shaderopt/internal/core"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/search"
	"shaderopt/internal/store"
	"shaderopt/internal/telemetry"
)

// ShaderSource is one shader submitted for sweeping: the raw source
// text, a study name for reporting, and an optional language ("auto",
// "glsl", "wgsl", "hlsl"; empty means auto-detect).
type ShaderSource struct {
	Name   string `json:"name"`
	Source string `json:"source"`
	Lang   string `json:"lang,omitempty"`
}

// SweepRequest is the /sweep request body.
type SweepRequest struct {
	Shaders []ShaderSource `json:"shaders"`
	// Protocol names the measurement protocol: "default" or "fast"
	// (empty means "default"). Sessions are per protocol; all share the
	// daemon's store and registry.
	Protocol string `json:"protocol,omitempty"`
}

// ShaderScores is one shader's complete sweep result: the original
// baseline and every distinct variant, per platform vendor. Variant
// hashes are the enumeration's content hashes, which a client can
// regenerate locally (enumeration is deterministic) to join scores back
// to variant sources and flag sets.
type ShaderScores struct {
	Name string `json:"name"`
	// Orig maps vendor -> measured time of the unmodified original.
	Orig map[string]float64 `json:"orig"`
	// Variants maps vendor -> variant hash -> measured time.
	Variants map[string]map[string]float64 `json:"variants"`
}

// StreamLine is one line of the /sweep response stream. Exactly one
// field is set: Event for per-shader progress, Results for the final
// payload, Error if the sweep failed (always the last line).
type StreamLine struct {
	Event   *search.SweepEvent `json:"event,omitempty"`
	Results []ShaderScores     `json:"results,omitempty"`
	Error   string             `json:"error,omitempty"`
}

// Config configures a Server.
type Config struct {
	// Store, when non-nil, is the persistent layer every session shares.
	Store *store.Store
	// Workers bounds each session's parallelism (0 = GOMAXPROCS).
	Workers int
	// Telemetry is the shared registry; nil creates a private one.
	Telemetry *telemetry.Registry
	// Platforms is the measurement roster; nil means gpu.Platforms().
	Platforms []*gpu.Platform
}

// Server owns the shared sessions and serves the sweep service. Create
// with New, mount via Handler, and on shutdown call Drain after the HTTP
// server has stopped accepting requests.
type Server struct {
	cfg Config
	reg *telemetry.Registry

	mu       sync.Mutex
	sessions map[string]*search.Session
}

// protocols maps the wire protocol names to measurement configs. A named
// protocol, not a raw config, is the wire format: the protocol is part
// of every persistent measurement key, so clients must not be able to
// submit configs that collide.
func protocols() map[string]harness.Config {
	return map[string]harness.Config{
		"default": harness.DefaultConfig(),
		"fast":    harness.FastConfig(),
	}
}

// ProtocolNames lists the protocol names /sweep accepts.
func ProtocolNames() []string {
	names := make([]string, 0, len(protocols()))
	for name := range protocols() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New creates a sweep server. Sessions are created lazily per protocol
// and live for the server's lifetime, so their in-memory caches and
// in-flight measurement tables are shared by every request.
func New(cfg Config) *Server {
	reg := cfg.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	if cfg.Platforms == nil {
		cfg.Platforms = gpu.Platforms()
	}
	return &Server{cfg: cfg, reg: reg, sessions: make(map[string]*search.Session)}
}

// Telemetry returns the server's shared registry.
func (s *Server) Telemetry() *telemetry.Registry { return s.reg }

// session returns the shared session for a named protocol.
func (s *Server) session(protocol string) (*search.Session, error) {
	if protocol == "" {
		protocol = "default"
	}
	cfg, ok := protocols()[protocol]
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q (want one of %v)", protocol, ProtocolNames())
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[protocol]; ok {
		return sess, nil
	}
	sess := search.NewSession(s.cfg.Platforms, search.Options{
		Cfg:       cfg,
		Workers:   s.cfg.Workers,
		Telemetry: s.reg,
		Store:     s.cfg.Store,
	})
	s.sessions[protocol] = sess
	return sess, nil
}

// Drain finishes a graceful shutdown: with no requests left in flight
// (http.Server.Shutdown guarantees that), it syncs the store so a warm
// restart sees every completed entry.
func (s *Server) Drain() error {
	if s.cfg.Store == nil {
		return nil
	}
	return s.cfg.Store.Sync()
}

// DefaultReadHeaderTimeout bounds how long HTTPServer waits for a
// request's headers. Generous for any real client, but it means a peer
// that opens a connection and trickles header bytes (slow-loris) cannot
// pin a server goroutine indefinitely.
const DefaultReadHeaderTimeout = 10 * time.Second

// HTTPServer returns an http.Server configured for the daemon's traffic
// shape: ReadHeaderTimeout set (headers are tiny; only a hostile or
// broken client needs longer), but no overall read or write timeout —
// request bodies can carry whole corpora, and a /sweep response is a
// long-lived chunked stream whose duration is the sweep's, so blanket
// timeouts would sever legitimate clients mid-study. Disconnected
// clients are handled by cancellation instead: the server cancels the
// request context, which stops the in-flight sweep (see handleSweep).
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: DefaultReadHeaderTimeout,
	}
}

// Handler returns the daemon's HTTP handler: POST /sweep, GET /healthz,
// GET /metricz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/sweep", s.handleSweep)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metricz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, s.reg.Snapshot().Table())
	})
	return mux
}

// handleSweep runs one sweep request against the shared session,
// streaming progress as newline-delimited JSON. The response status is
// always 200 once streaming starts; failures end the stream with an
// {"error": ...} line (the transport-level contract of chunked streams).
// A failed driver compile, ingestion included, arrives as the sweep's
// error. A panic on the request goroutine is the last line of defence:
// it is recovered, counted in sweepd.panics, and reported the same way
// (or as a 500 before streaming starts), so one bad request never takes
// the daemon down.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var emit func(StreamLine)
	defer func() {
		v := recover()
		if v == nil {
			return
		}
		s.reg.Counter("sweepd.panics").Inc()
		msg := fmt.Sprintf("internal error: %v", v)
		if emit != nil {
			emit(StreamLine{Error: msg})
			return
		}
		http.Error(w, msg, http.StatusInternalServerError)
	}()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req SweepRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return
	}
	if len(req.Shaders) == 0 {
		http.Error(w, "no shaders", http.StatusBadRequest)
		return
	}
	sess, err := s.session(req.Protocol)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	handles := make([]*core.Shader, len(req.Shaders))
	for i, sh := range req.Shaders {
		lang, err := core.ParseLang(sh.Lang)
		if err != nil {
			http.Error(w, fmt.Sprintf("shader %s: %v", sh.Name, err), http.StatusBadRequest)
			return
		}
		h, err := core.CompileT(s.reg, sh.Source, sh.Name, lang)
		if err != nil {
			http.Error(w, fmt.Sprintf("shader %s: %v", sh.Name, err), http.StatusBadRequest)
			return
		}
		handles[i] = h
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	var writeErr error
	emit = func(line StreamLine) {
		// Session event callbacks are serialized, and the final line is
		// emitted after Sweep returns, so writes never interleave (no
		// mutex needed). Once a write fails the client is gone: stop
		// encoding into the dead connection and let the request context
		// (which the server cancels on disconnect) stop the sweep.
		if writeErr != nil {
			return
		}
		if err := enc.Encode(line); err != nil {
			writeErr = err
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}

	// The request context is canceled when the client disconnects (or the
	// server shuts down), so an abandoned stream stops claiming shaders
	// and starting measurement passes instead of sweeping for nobody.
	// Work other concurrent clients wait on still completes; that is
	// SweepContext's cancellation contract.
	sweep, err := sess.SweepContext(r.Context(), handles, func(ev search.SweepEvent) {
		emit(StreamLine{Event: &ev})
	})
	if err != nil {
		emit(StreamLine{Error: err.Error()})
		return
	}
	results := make([]ShaderScores, len(sweep.Results))
	for i, res := range sweep.Results {
		results[i] = ShaderScores{Name: res.Name(), Orig: res.OrigNS, Variants: res.VariantNS}
	}
	// Guard the harness boundary: a NaN or ±Inf score (a corrupted cost
	// model, a poisoned store entry) would make enc.Encode fail with
	// "json: unsupported value" — killing the stream mid-line with no
	// error line and leaving the client to diagnose a truncated read.
	// Catch it here and end the stream with a structured error instead.
	if err := validateScores(results); err != nil {
		s.reg.Counter("sweepd.nonfinite_scores").Inc()
		emit(StreamLine{Error: err.Error()})
		return
	}
	emit(StreamLine{Results: results})
}

// validateScores scans a sweep's scores for non-finite values, returning
// a diagnostic naming the first offender (in deterministic order) and
// the total count. The scan runs on every response, so it only counts;
// the sorted walk that finds the first offender runs when there is one.
func validateScores(results []ShaderScores) error {
	bad := 0
	for _, r := range results {
		for _, ns := range r.Orig {
			if !finite(ns) {
				bad++
			}
		}
		for _, m := range r.Variants {
			for _, ns := range m {
				if !finite(ns) {
					bad++
				}
			}
		}
	}
	if bad == 0 {
		return nil
	}
	return fmt.Errorf("sweep produced %d non-finite score(s); first: %s", bad, firstNonFinite(results))
}

func finite(ns float64) bool { return !math.IsNaN(ns) && !math.IsInf(ns, 0) }

// firstNonFinite describes the first non-finite score in shader order,
// then sorted vendor and variant hash, the originals before the variants.
func firstNonFinite(results []ShaderScores) string {
	for _, r := range results {
		for _, vendor := range sortedKeys(r.Orig) {
			if ns := r.Orig[vendor]; !finite(ns) {
				return fmt.Sprintf("%s orig on %s = %v", r.Name, vendor, ns)
			}
		}
		for _, vendor := range sortedKeys(r.Variants) {
			m := r.Variants[vendor]
			for _, hash := range sortedKeys(m) {
				if ns := m[hash]; !finite(ns) {
					return fmt.Sprintf("%s variant %s on %s = %v", r.Name, hash, vendor, ns)
				}
			}
		}
	}
	return ""
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
