package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"shaderopt/internal/analysis"
	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/report"
	"shaderopt/internal/search"
	"shaderopt/internal/stats"
	"shaderopt/internal/store"
	"shaderopt/internal/sweepd"
)

// storeMode says which persistent store a study op runs over.
type storeMode int

const (
	noStore    storeMode = iota
	freshStore           // a new, empty store per op: every entry is written
	warmStore            // the store populated during setup: every score is read
)

// workload is one set of inputs the benchmark runs. Study workloads run
// the full fast study (fresh handles, fresh Session, Sweep, report) once
// per op; the daemon workload sends the requests cmd/sweep -server sends
// (the whole corpus, or one language's shaders) to an in-process sweepd
// server warmed with the whole corpus.
type workload struct {
	name, why string
	store     storeMode
	daemon    bool
}

var workloads = []workload{
	{name: "cold-corpus", store: noStore,
		why: "the cmd/sweep -report transfer -fast study from source: driver front end, re-ingest and vendor compile do most of the work; no store, no daemon"},
	{name: "cold-store", store: freshStore,
		why: "the same cold study writing through a fresh persistent store, so store write costs show while the compile path stays the same"},
	{name: "warm-store", store: warmStore,
		why: "the warm-restart study: every score is read from a store populated in set-up, so enumeration dominates and compile changes must not move it"},
	{name: "daemon-warm", daemon: true,
		why: "one client sends what cmd/sweep -server sends, whole-corpus and per-language requests in seeded order, to a warm in-process sweepd"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runConfig is everything one benchmark run is given.
type runConfig struct {
	workload workload
	seed     int64
	// window is how long the run measures; maxOps, when positive, also
	// caps the timed ops (study iterations or daemon requests).
	window time.Duration
	maxOps int
	// subset, when set, keeps only the named corpus shaders (a test
	// subset); the report digest is then not checked.
	subset []string
	// workdir holds the run's stores; traceOut, when set, receives the
	// traced run's Chrome trace.
	workdir  string
	traceOut string
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output object, printed as the last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// notes are human-readable lines printed before the JSON.
	notes []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.Metrics == nil {
		r.Metrics = map[string]metric{}
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a failed op.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	r.note("FAIL: "+format, args...)
}

// env is a workload's set-up state.
type env struct {
	shaders []*corpus.Shader // in the seed's order
	full    bool             // the whole corpus, so the report digest applies
	gold    *golden
	// storeDir is the warm store (warm-store).
	storeDir string
	// server and ts are the warmed daemon (daemon-warm).
	server *sweepd.Server
	ts     *httptest.Server
	// requests are the daemon's requests (see daemonRequests).
	requests []sweepd.SweepRequest
}

func (e *env) close() {
	if e.ts != nil {
		e.ts.Close()
		if err := e.server.Drain(); err != nil {
			fmt.Fprintln(os.Stderr, "shaderbench: drain:", err)
		}
	}
	if e.storeDir != "" {
		os.RemoveAll(e.storeDir)
	}
}

// loadShaders loads the corpus (or its test subset) in the seed's order.
// Order never changes a score; it changes scheduling and cache order.
func loadShaders(cfg runConfig) ([]*corpus.Shader, bool, error) {
	shaders, err := corpus.Load()
	if err != nil {
		return nil, false, err
	}
	full := cfg.subset == nil
	if !full {
		var kept []*corpus.Shader
		for _, name := range cfg.subset {
			s := corpus.ByName(shaders, name)
			if s == nil {
				return nil, false, fmt.Errorf("no corpus shader %s", name)
			}
			kept = append(kept, s)
		}
		shaders = kept
	}
	rand.New(rand.NewSource(cfg.seed)).Shuffle(len(shaders), func(i, j int) {
		shaders[i], shaders[j] = shaders[j], shaders[i]
	})
	return shaders, full, nil
}

// setup builds a workload's state: the corpus, then one cold study of the
// workload's kind, checked against the golden. For warm-store the study
// populates the store and for daemon-warm it warms the daemon; for the cold
// workloads it is a warm-up op, so the timed ops find the heap grown. All
// of it is setup_s, so work moved into set-up shows. The study also makes
// every set-up seconds long: a corpus load alone takes milliseconds, too
// short to time steadily on a machine whose speed drifts over seconds.
func setup(cfg runConfig, gold *golden) (*env, error) {
	shaders, full, err := loadShaders(cfg)
	if err != nil {
		return nil, err
	}
	e := &env{shaders: shaders, full: full, gold: gold}
	if cfg.workload.daemon {
		e.server = sweepd.New(sweepd.Config{})
		e.ts = httptest.NewServer(e.server.Handler())
		e.requests = daemonRequests(shaders)
		c := newClient(e.ts.URL, nil)
		scores, err := c.Sweep(e.requests[0], nil) // the whole corpus
		c.HTTPClient.CloseIdleConnections()
		if bad := gold.failedShaders(scores); err == nil && len(bad) > 0 {
			err = fmt.Errorf("scores differ from the golden: %v", bad)
		}
		if err != nil {
			e.close()
			return nil, fmt.Errorf("warming the daemon: %w", err)
		}
		return e, nil
	}
	if cfg.workload.store == warmStore {
		if e.storeDir, err = os.MkdirTemp(cfg.workdir, "warm-*"); err != nil {
			return nil, err
		}
	}
	st, cleanup, err := e.openStore(cfg)
	if err != nil {
		e.close()
		return nil, err
	}
	out, err := runStudy(shaders, search.Options{Cfg: harness.FastConfig(), Store: st}, false)
	if err == nil {
		err = e.check(out)
	}
	if err == nil && cfg.workload.store == warmStore {
		err = st.Sync()
	}
	cleanup()
	if err != nil {
		e.close()
		return nil, fmt.Errorf("set-up study: %w", err)
	}
	return e, nil
}

// newClient returns a daemon client on one keep-alive connection. wrap,
// when non-nil, wraps the transport (the workload's client copies each
// response body).
func newClient(url string, wrap func(http.RoundTripper) http.RoundTripper) *sweepd.Client {
	var rt http.RoundTripper = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	if wrap != nil {
		rt = wrap(rt)
	}
	return &sweepd.Client{BaseURL: url, HTTPClient: &http.Client{Transport: rt}}
}

// studyOut is one study op's output and its phase split.
type studyOut struct {
	results []*search.ShaderResult // in corpus (name) order
	report  string
	// counters is the session registry's snapshot after the sweep.
	counters map[string]int64
	// Phase wall times in seconds; enumS is set only by split runs.
	compileS, enumS, measureS, analysisS, reportS float64
}

// runStudy is one study op: fresh handles compiled from source, a fresh
// Session, the exhaustive Sweep, and the report (Table I, Fig. 5, both
// transfer matrices). split enumerates every handle through the session
// before sweeping, so enumeration and measurement time apart.
func runStudy(shaders []*corpus.Shader, opts search.Options, split bool) (*studyOut, error) {
	out := &studyOut{}
	t := time.Now()
	handles := make([]*core.Shader, len(shaders))
	for i, s := range shaders {
		h, err := core.CompileT(opts.Telemetry, s.Source, s.Name, s.Lang)
		if err != nil {
			return nil, err
		}
		handles[i] = h
	}
	out.compileS = since(t)
	sess := search.NewSession(gpu.Platforms(), opts)
	t = time.Now()
	if split {
		for _, h := range handles {
			sess.Variants(h)
		}
		out.enumS = since(t)
		t = time.Now()
	}
	sw, err := sess.Sweep(handles, nil)
	if err != nil {
		return nil, err
	}
	out.measureS = since(t)
	out.counters = sw.Stats.Metrics.Counters

	// Report in corpus order, as cmd/sweep does: the seed's shuffle must
	// not reorder the floating-point sums behind the report.
	out.results = append([]*search.ShaderResult(nil), sw.Results...)
	sort.Slice(out.results, func(i, j int) bool { return out.results[i].Name() < out.results[j].Name() })
	ordered := &search.Sweep{Platforms: sw.Platforms, Results: out.results, Cfg: sw.Cfg}

	t = time.Now()
	rows := make([]search.MeanSpeedups, len(ordered.Platforms))
	for i, p := range ordered.Platforms {
		rows[i] = ordered.MeanSpeedups(p.Vendor)
	}
	lm := analysis.LangTransferMatrix(ordered)
	bm := analysis.BackendTransferMatrix(ordered)
	out.analysisS = since(t)

	t = time.Now()
	parts := []string{report.Table1(rows), report.Fig5(rows), report.TransferMatrix(lm), report.TransferMatrix(bm),
		report.TransferHeadline(lm), report.TransferHeadline(bm)}
	out.report = strings.Join(parts, "\n")
	out.reportS = since(t)
	return out, nil
}

// check compares a study op's scores, and for the whole corpus its report,
// with the golden.
func (e *env) check(out *studyOut) error {
	if bad := e.gold.failedShaders(scoresOf(out.results)); len(bad) > 0 {
		return fmt.Errorf("%d shader(s) differ from the golden: %v", len(bad), bad)
	}
	if e.full && textDigest(out.report) != e.gold.report {
		return fmt.Errorf("report text differs from the golden")
	}
	return nil
}

// openStore opens the store a study op runs over, with a cleanup that
// runs after the op's timing.
func (e *env) openStore(cfg runConfig) (*store.Store, func(), error) {
	switch cfg.workload.store {
	case freshStore:
		dir, err := os.MkdirTemp(cfg.workdir, "fresh-*")
		if err != nil {
			return nil, nil, err
		}
		st, err := store.Open(dir, 0)
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		return st, func() { os.RemoveAll(dir) }, nil
	case warmStore:
		st, err := store.Open(e.storeDir, 0)
		return st, func() {}, err
	}
	return nil, func() {}, nil
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall  time.Time
	cpu   float64 // user+sys seconds
	alloc uint64  // cumulative heap bytes allocated
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on a supported platform
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu := float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	return usage{wall: time.Now(), cpu: cpu, alloc: ms.TotalAlloc}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }

// run executes one untraced benchmark run and reports the end-to-end
// metrics.
func run(cfg runConfig) (*result, error) {
	gold, err := parseGolden(goldenText)
	if err != nil {
		return nil, err
	}
	t := time.Now()
	e, err := setup(cfg, gold)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r := &result{}
	r.set("setup_s", since(t), "s")
	if cfg.workload.daemon {
		measureDaemon(cfg, e, r)
	} else {
		measureStudy(cfg, e, r)
	}
	r.set("peak_rss_mb", peakRSSMB(), "MB")
	r.Correct = r.Failed == 0 && r.Attempted > 0
	r.note("failed_frac %g (%d of %d ops failed)", float64(r.Failed)/float64(max(r.Attempted, 1)), r.Failed, r.Attempted)
	return r, nil
}

// measureStudy runs study ops while the next one is expected to end inside
// the window, at least one; set-up's study was the warm-up.
func measureStudy(cfg runConfig, e *env, r *result) {
	var walls, cpus, allocs []float64
	start := time.Now()
	for {
		st, cleanup, err := e.openStore(cfg)
		if err != nil {
			r.Attempted++
			r.fail("op %d: %v", len(walls), err)
			return
		}
		before := readUsage()
		out, err := runStudy(e.shaders, search.Options{Cfg: harness.FastConfig(), Store: st}, false)
		after := readUsage()
		cleanup()
		r.Attempted++
		if err == nil {
			err = e.check(out)
		}
		if err != nil {
			r.fail("op %d: %v", len(walls), err)
		}
		wall := after.wall.Sub(before.wall).Seconds()
		walls = append(walls, wall)
		cpus = append(cpus, after.cpu-before.cpu)
		allocs = append(allocs, float64(after.alloc-before.alloc))
		if cfg.maxOps > 0 && len(walls) >= cfg.maxOps ||
			time.Since(start)+time.Duration(wall*float64(time.Second)) > cfg.window {
			break
		}
	}
	reportOps(r, walls, stats.Median(cpus), stats.Median(allocs), float64(len(walls))/sum(walls))
}

// reportOps sets the end-to-end metrics from the timed ops' wall times
// (seconds), CPU seconds and allocated bytes per op, and the op rate.
func reportOps(r *result, walls []float64, cpu, alloc, perS float64) {
	q, label := tailQuantile(len(walls))
	r.set("op_p50_ms", 1e3*stats.Median(walls), "ms")
	r.set("op_tail_ms", 1e3*stats.Quantile(walls, q), "ms")
	r.set("cpu_ms_per_op", 1e3*cpu, "ms")
	r.set("alloc_mb_per_op", alloc/(1<<20), "MB")
	r.set("ops_per_s", perS, "1/s")
	r.note("samples: %d timed ops; op_tail_ms is the %s", len(walls), label)
}

// tailQuantile is p90 when a run has at least 100 ops, so that ten samples
// lie beyond it, else the median (a study run's few ops). A daemon run
// sends 500–800 requests, depending on the machine's speed; a quantile
// needing more of them, such as p98 from 500, would switch on slow runs.
func tailQuantile(n int) (float64, string) {
	if n >= 100 {
		return 0.9, "p90"
	}
	return 0.5, "median (fewer than 100 ops)"
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// workDir creates the run's private scratch directory under root.
func workDir(root string) (string, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, "run-*")
}
