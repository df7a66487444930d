package search

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/passes"
)

// sweepNames is the behaviour-diverse study subset; -short trims it to
// the three shaders the property tests need (a loop shader for Unroll, a
// matrix shader for the scalarization artefact, and a WGSL shader for
// cross-frontend coverage).
func sweepNames() []string {
	if testing.Short() {
		return []string{"blur/v9", "projtex/compose", "wgsl/ripple"}
	}
	return []string{"blur/v9", "ui/flat", "simple/luma", "alu/d3", "projtex/compose", "relief/basic", "wgsl/ripple"}
}

func sweepSubset() ([]*corpus.Shader, error) {
	all, err := corpus.Load()
	if err != nil {
		return nil, err
	}
	var shaders []*corpus.Shader
	for _, name := range sweepNames() {
		s := corpus.ByName(all, name)
		if s == nil {
			return nil, fmt.Errorf("missing corpus shader %s", name)
		}
		shaders = append(shaders, s)
	}
	return shaders, nil
}

// The sweep is deterministic (and read-only for every assertion below),
// so the exhaustive study runs once and is shared across tests;
// TestSweepDeterministic still runs its own fresh sweeps.
var (
	sweepOnce   sync.Once
	cachedSweep *Sweep
	cachedErr   error
)

func miniSweep(t *testing.T) *Sweep {
	t.Helper()
	// No t.Fatal inside the Once: a Goexit would mark it done with both
	// cache slots nil and every later caller would panic instead of
	// reporting the original failure.
	sweepOnce.Do(func() {
		shaders, err := sweepSubset()
		if err != nil {
			cachedErr = err
			return
		}
		cachedSweep, cachedErr = Run(shaders, gpu.Platforms(), Options{Cfg: harness.FastConfig()})
	})
	if cachedErr != nil {
		t.Fatal(cachedErr)
	}
	return cachedSweep
}

func freshSweep(t *testing.T) *Sweep {
	t.Helper()
	shaders, err := sweepSubset()
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := Run(shaders, gpu.Platforms(), Options{Cfg: harness.FastConfig()})
	if err != nil {
		t.Fatal(err)
	}
	return sweep
}

func TestSweepRunsAndIsComplete(t *testing.T) {
	sweep := miniSweep(t)
	if len(sweep.Results) != len(sweepNames()) {
		t.Fatalf("results = %d, want %d", len(sweep.Results), len(sweepNames()))
	}
	for _, r := range sweep.Results {
		for _, pl := range sweep.Platforms {
			if r.OrigNS[pl.Vendor] <= 0 {
				t.Errorf("%s on %s: no original time", r.Shader.Name, pl.Vendor)
			}
			for _, v := range r.Variants.Variants {
				if r.VariantNS[pl.Vendor][v.Hash] <= 0 {
					t.Errorf("%s on %s: missing variant time", r.Shader.Name, pl.Vendor)
				}
			}
		}
	}
}

func TestSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two fresh exhaustive sweeps are slow")
	}
	a := freshSweep(t)
	b := freshSweep(t)
	for i := range a.Results {
		for vendor, ns := range a.Results[i].OrigNS {
			if b.Results[i].OrigNS[vendor] != ns {
				t.Fatalf("nondeterministic sweep: %s %s", a.Results[i].Shader.Name, vendor)
			}
		}
	}
}

func TestBestSpeedupNeverNegative(t *testing.T) {
	// The best variant can always fall back to the all-off output, but the
	// BASELINE is the unmodified original, so best speedup can be negative
	// only when every variant (including all-off) is slower — the
	// artefact-dominated shaders. Check both cases exist in the subset.
	sweep := miniSweep(t)
	sawPositive := false
	for _, r := range sweep.Results {
		for _, pl := range sweep.Platforms {
			if r.BestSpeedup(pl.Vendor) > 1 {
				sawPositive = true
			}
		}
	}
	if !sawPositive {
		t.Error("no shader improved anywhere — sweep is broken")
	}
}

func TestMatrixShaderArtefactCanLose(t *testing.T) {
	// projtex/compose is matrix-heavy: the offline scalarization artefact
	// should make its all-off variant SLOWER than the original on at least
	// one desktop platform (§III-C: artefacts "could sometimes negatively
	// impact the code's performance").
	sweep := miniSweep(t)
	r := sweep.ResultFor("projtex/compose")
	lost := false
	for _, pl := range sweep.Platforms {
		if r.SpeedupFor(pl.Vendor, core.NoFlags) < -0.5 {
			lost = true
		}
	}
	if !lost {
		t.Error("matrix scalarization artefact shows no cost anywhere")
	}
}

func TestBestStaticFlags(t *testing.T) {
	sweep := miniSweep(t)
	flags, mean := sweep.BestStaticFlags("AMD")
	// The best static mean must be at least as good as any single flag set
	// we test by hand.
	for _, f := range []core.Flags{core.NoFlags, core.DefaultFlags, core.AllFlags} {
		sum := 0.0
		for _, r := range sweep.Results {
			sum += r.SpeedupFor("AMD", f)
		}
		if m := sum / float64(len(sweep.Results)); m > mean+1e-9 {
			t.Errorf("best static %v (%+.2f%%) beaten by %v (%+.2f%%)", flags, mean, f, m)
		}
	}
}

func TestMeanSpeedupsOrdering(t *testing.T) {
	sweep := miniSweep(t)
	for _, pl := range sweep.Platforms {
		ms := sweep.MeanSpeedups(pl.Vendor)
		if ms.Best < ms.BestStatic-1e-9 {
			t.Errorf("%s: best per shader %.3f below best static %.3f", pl.Vendor, ms.Best, ms.BestStatic)
		}
		if ms.BestStatic < ms.Default-1e-9 {
			t.Errorf("%s: best static %.3f below default %.3f", pl.Vendor, ms.BestStatic, ms.Default)
		}
	}
}

func TestPerShaderSpeedupsSorted(t *testing.T) {
	sweep := miniSweep(t)
	per := sweep.PerShaderSpeedups("ARM")
	for i := 1; i < len(per); i++ {
		if per[i].Best > per[i-1].Best {
			t.Error("per-shader list not sorted by best")
		}
	}
	if got := sweep.Top30Mean("ARM"); got < per[len(per)-1].Best {
		t.Error("top-30 mean below the weakest shader")
	}
}

func TestFlagApplicabilities(t *testing.T) {
	sweep := miniSweep(t)
	apps := sweep.FlagApplicabilities()
	if len(apps) != passes.NumFlags {
		t.Fatalf("apps = %d", len(apps))
	}
	byFlag := map[core.Flags]FlagApplicability{}
	for _, a := range apps {
		byFlag[a.Flag] = a
		if a.Total != len(sweep.Results) {
			t.Errorf("%v: total = %d", a.Flag, a.Total)
		}
		if a.ChangesCode > a.Total {
			t.Errorf("%v: changes > total", a.Flag)
		}
	}
	// §VI-D1: ADCE never changes the output.
	if byFlag[core.FlagADCE].ChangesCode != 0 {
		t.Errorf("ADCE changed code for %d shaders, paper says never", byFlag[core.FlagADCE].ChangesCode)
	}
	// Unroll must change the blur shader at least.
	if byFlag[core.FlagUnroll].ChangesCode == 0 {
		t.Error("unroll never changed code")
	}
}

func TestFlagIsolationBaselines(t *testing.T) {
	sweep := miniSweep(t)
	iso := sweep.FlagIsolation("Qualcomm")
	if len(iso) != passes.NumFlags {
		t.Fatalf("iso flags = %d", len(iso))
	}
	// ADCE-alone equals the all-off baseline modulo measurement noise.
	for _, v := range iso[core.FlagADCE] {
		if v > 1.5 || v < -1.5 {
			t.Errorf("ADCE isolated speedup %v%% should be measurement noise only", v)
		}
	}
	for f, speeds := range iso {
		if len(speeds) != len(sweep.Results) {
			t.Errorf("%v: %d samples", f, len(speeds))
		}
	}
}

func TestSpeedupDistribution(t *testing.T) {
	sweep := miniSweep(t)
	dist := sweep.SpeedupDistribution("ARM", core.AllFlags)
	if len(dist) != len(sweep.Results) {
		t.Fatalf("dist = %d", len(dist))
	}
}

func TestResultFor(t *testing.T) {
	sweep := miniSweep(t)
	if sweep.ResultFor("blur/v9") == nil {
		t.Error("blur/v9 missing")
	}
	if sweep.ResultFor("nope") != nil {
		t.Error("unexpected result")
	}
}

// --- Session / handle API ---

func compileSubset(t *testing.T) []*core.Shader {
	t.Helper()
	shaders, err := sweepSubset()
	if err != nil {
		t.Fatal(err)
	}
	handles := make([]*core.Shader, len(shaders))
	for i, sh := range shaders {
		h, err := core.Compile(sh.Source, sh.Name, sh.Lang)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	return handles
}

// TestSessionSweepMatchesLegacyMeasurement: the handle-based session sweep
// must produce byte-identical scores to the pre-handle semantics — every
// source measured through harness.MeasureSource, one call per (variant,
// platform) with no caching. The session's measurement cache, shared
// driver-front-end lowering, and IR-based measurement of originals must
// not change a single number.
func TestSessionSweepMatchesLegacyMeasurement(t *testing.T) {
	cfg := harness.FastConfig()
	sess := NewSession(gpu.Platforms(), Options{Cfg: cfg})
	got, err := sess.Sweep(compileSubset(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	shaders, err := sweepSubset()
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range shaders {
		r := got.Results[i]
		if r.Name() != sh.Name {
			t.Fatalf("order differs: %s vs %s", r.Name(), sh.Name)
		}
		h, err := core.Compile(sh.Source, sh.Name, sh.Lang)
		if err != nil {
			t.Fatal(err)
		}
		vs := h.Variants()
		origSrc := sh.Source
		if sh.Lang.Resolve(sh.Source) == core.LangWGSL {
			origSrc = vs.VariantFor(core.NoFlags).Source
		}
		for _, pl := range gpu.Platforms() {
			m, err := harness.MeasureSource(pl, origSrc, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if r.OrigNS[pl.Vendor] != m.Score() {
				t.Errorf("%s orig on %s: %v != legacy %v", sh.Name, pl.Vendor, r.OrigNS[pl.Vendor], m.Score())
			}
			for _, v := range vs.Variants {
				vm, err := harness.MeasureSource(pl, v.Source, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if r.VariantNS[pl.Vendor][v.Hash] != vm.Score() {
					t.Errorf("%s variant %s on %s: %v != legacy %v",
						sh.Name, v.Hash, pl.Vendor, r.VariantNS[pl.Vendor][v.Hash], vm.Score())
				}
			}
		}
	}
}

// TestSessionCacheAcrossSweeps: re-sweeping the same handles in one
// session must be served entirely from the measurement cache.
func TestSessionCacheAcrossSweeps(t *testing.T) {
	sess := NewSession(gpu.Platforms(), Options{Cfg: harness.FastConfig()})
	handles := compileSubset(t)
	if _, err := sess.Sweep(handles, nil); err != nil {
		t.Fatal(err)
	}
	missesBefore := sess.Metrics().Counters["session.measure.misses"]
	if missesBefore == 0 {
		t.Fatal("first sweep measured nothing")
	}
	if _, err := sess.Sweep(handles, nil); err != nil {
		t.Fatal(err)
	}
	missesAfter := sess.Metrics().Counters["session.measure.misses"]
	if missesAfter != missesBefore {
		t.Errorf("second sweep measured %d new variants, want 0", missesAfter-missesBefore)
	}
}

// TestSessionWGSLOriginalShared: a WGSL shader's original baseline is its
// all-flags-off translation, so the sweep must measure it once per
// platform, not twice.
func TestSessionWGSLOriginalShared(t *testing.T) {
	all, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	ws := corpus.ByName(all, "wgsl/luma")
	if ws == nil {
		t.Fatal("missing wgsl/luma")
	}
	h, err := core.Compile(ws.Source, ws.Name, ws.Lang)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(gpu.Platforms(), Options{Cfg: harness.FastConfig()})
	sweep, err := sess.Sweep([]*core.Shader{h}, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := sess.Metrics()
	hits, misses := m.Counters["session.measure.hits"], m.Counters["session.measure.misses"]
	unique := sweep.Results[0].Variants.Unique()
	wantMisses := int64(unique * len(gpu.Platforms()))
	if misses != wantMisses {
		t.Errorf("misses = %d, want %d (one per variant per platform)", misses, wantMisses)
	}
	if hits != int64(len(gpu.Platforms())) {
		t.Errorf("hits = %d, want %d (original shared with all-off variant)", hits, len(gpu.Platforms()))
	}
}

// TestSweepEvents: one serialized event per shader with consistent
// bookkeeping.
func TestSweepEvents(t *testing.T) {
	sess := NewSession(gpu.Platforms(), Options{Cfg: harness.FastConfig()})
	handles := compileSubset(t)
	var events []SweepEvent
	if _, err := sess.Sweep(handles, func(ev SweepEvent) {
		events = append(events, ev)
	}); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(handles) {
		t.Fatalf("events = %d, want %d", len(events), len(handles))
	}
	seen := map[string]bool{}
	for i, ev := range events {
		if ev.Total != len(handles) {
			t.Errorf("event %d: total = %d", i, ev.Total)
		}
		if ev.Done != i+1 {
			t.Errorf("event %d: done = %d, want %d", i, ev.Done, i+1)
		}
		if ev.UniqueVariants < 1 {
			t.Errorf("event %d: no variants", i)
		}
		if ev.Measured+ev.CacheHits < ev.UniqueVariants {
			t.Errorf("event %d: %d measured + %d cached < %d variants", i, ev.Measured, ev.CacheHits, ev.UniqueVariants)
		}
		seen[ev.Shader] = true
	}
	for _, h := range handles {
		if !seen[h.Name] {
			t.Errorf("no event for %s", h.Name)
		}
	}
}

// TestSweepSingleFrontendParsePerShader is the headline acceptance
// criterion: compiling N shaders costs N frontend parses, and the full
// exhaustive sweep over them costs zero more.
func TestSweepSingleFrontendParsePerShader(t *testing.T) {
	shaders, err := sweepSubset()
	if err != nil {
		t.Fatal(err)
	}
	before := core.FrontendParses()
	handles := make([]*core.Shader, len(shaders))
	for i, sh := range shaders {
		if handles[i], err = core.Compile(sh.Source, sh.Name, sh.Lang); err != nil {
			t.Fatal(err)
		}
	}
	if got := core.FrontendParses() - before; got != int64(len(shaders)) {
		t.Fatalf("compiling %d shaders performed %d parses", len(shaders), got)
	}
	sess := NewSession(gpu.Platforms(), Options{Cfg: harness.FastConfig()})
	if _, err := sess.Sweep(handles, nil); err != nil {
		t.Fatal(err)
	}
	if got := core.FrontendParses() - before; got != int64(len(shaders)) {
		t.Errorf("sweep re-parsed: %d total parses for %d shaders", got, len(shaders))
	}
}

// TestBestStaticFlagsMemoized: repeated analysis calls must agree (the
// memo) and remain consistent with a fresh scan on another vendor order.
func TestBestStaticFlagsMemoized(t *testing.T) {
	sweep := miniSweep(t)
	f1, m1 := sweep.BestStaticFlags("ARM")
	f2, m2 := sweep.BestStaticFlags("ARM")
	if f1 != f2 || m1 != m2 {
		t.Errorf("memoized result differs: %v/%v vs %v/%v", f1, m1, f2, m2)
	}
	// The memo must be per vendor.
	fi, _ := sweep.BestStaticFlags("Intel")
	f3, _ := sweep.BestStaticFlags("ARM")
	if f3 != f1 {
		t.Errorf("ARM result changed after Intel query: %v vs %v", f3, f1)
	}
	_ = fi
}

// --- sharded enumeration + LRU eviction ---

// TestSessionSweepWorkerInvariance pins the tentpole's scheduling
// independence at the session level: concurrent sweeps over one-worker and
// eight-worker sessions produce identical variant fingerprints and
// identical measurements for every shader.
func TestSessionSweepWorkerInvariance(t *testing.T) {
	shaders, err := sweepSubset()
	if err != nil {
		t.Fatal(err)
	}
	run := func(workers int) *Sweep {
		sweep, err := Run(shaders, gpu.Platforms(), Options{Cfg: harness.FastConfig(), Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		return sweep
	}
	one, eight := run(1), run(8)
	for i, r1 := range one.Results {
		r8 := eight.Results[i]
		if r1.Variants.Unique() != r8.Variants.Unique() {
			t.Fatalf("%s: unique %d vs %d across worker counts", r1.Name(), r1.Variants.Unique(), r8.Variants.Unique())
		}
		for j, v1 := range r1.Variants.Variants {
			if v8 := r8.Variants.Variants[j]; v8.Hash != v1.Hash {
				t.Fatalf("%s: variant %d hash %s vs %s across worker counts", r1.Name(), j, v1.Hash, v8.Hash)
			}
		}
		for _, pl := range one.Platforms {
			if r1.OrigNS[pl.Vendor] != r8.OrigNS[pl.Vendor] {
				t.Fatalf("%s: original time differs on %s across worker counts", r1.Name(), pl.Vendor)
			}
			for hash, ns := range r1.VariantNS[pl.Vendor] {
				if r8.VariantNS[pl.Vendor][hash] != ns {
					t.Fatalf("%s: variant %s time differs on %s across worker counts", r1.Name(), hash, pl.Vendor)
				}
			}
		}
	}
}

// TestConcurrentSessionVariants hammers one session's enumeration cache
// from many goroutines (exercised by the -race CI job) and checks every
// caller observes the same variant sets.
func TestConcurrentSessionVariants(t *testing.T) {
	shaders, err := sweepSubset()
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(gpu.Platforms(), Options{Cfg: harness.FastConfig(), Workers: 4})
	handles := make([]*core.Shader, len(shaders))
	for i, s := range shaders {
		if handles[i], err = core.Compile(s.Source, s.Name, s.Lang); err != nil {
			t.Fatal(err)
		}
	}
	sets := make([][]*core.VariantSet, 6)
	var wg sync.WaitGroup
	for g := range sets {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sets[g] = make([]*core.VariantSet, len(handles))
			for i, h := range handles {
				vs, _ := sess.Variants(h)
				sets[g][i] = vs
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(sets); g++ {
		for i := range handles {
			if sets[g][i].Unique() != sets[0][i].Unique() {
				t.Fatalf("goroutine %d saw %d variants for %s, goroutine 0 saw %d",
					g, sets[g][i].Unique(), handles[i].Name, sets[0][i].Unique())
			}
			for j, v := range sets[0][i].Variants {
				if sets[g][i].Variants[j].Hash != v.Hash {
					t.Fatalf("goroutine %d saw different variant %d for %s", g, j, handles[i].Name)
				}
			}
		}
	}
}

// TestEnumCacheNeverExceedsBound sweeps more variants than the configured
// cache budget through one session and checks the LRU invariant after
// every shader: the summed cached variant count stays at or below the
// bound, with older enumerations evicted rather than the bound stretched.
func TestEnumCacheNeverExceedsBound(t *testing.T) {
	shaders, err := sweepSubset()
	if err != nil {
		t.Fatal(err)
	}
	const bound = 12 // small enough that the subset must evict
	sess := newSession(gpu.Platforms(), Options{Cfg: harness.FastConfig()}, bound)
	for _, s := range shaders {
		h, err := core.Compile(s.Source, s.Name, s.Lang)
		if err != nil {
			t.Fatal(err)
		}
		sess.Variants(h)
		g := sess.Metrics().Gauges
		if variants, b := g["cache.enum.cost"], g["cache.enum.bound"]; b != bound || variants > bound {
			t.Fatalf("after %s: cached variants %d exceed bound %d", s.Name, variants, b)
		}
	}
	g := sess.Metrics().Gauges
	if g["cache.enum.entries"] == 0 {
		t.Fatal("cache should retain the most recent enumerations")
	}
	if entries, b := g["cache.lowered.entries"], g["cache.lowered.bound"]; b != bound || entries > b {
		t.Fatalf("lowered cache %d entries exceeds bound %d", entries, b)
	}
}

// TestEnumCacheServesRepeats checks the session cache actually hits: a
// second handle for the same source gets the cached set without
// re-enumerating, and the sweep event stream reports it.
func TestEnumCacheServesRepeats(t *testing.T) {
	shaders, err := sweepSubset()
	if err != nil {
		t.Fatal(err)
	}
	s := shaders[0]
	sess := NewSession(gpu.Platforms(), Options{Cfg: harness.FastConfig()})
	h1, err := core.Compile(s.Source, s.Name, s.Lang)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := core.Compile(s.Source, s.Name, s.Lang)
	if err != nil {
		t.Fatal(err)
	}
	vs1, hit1 := sess.Variants(h1)
	vs2, hit2 := sess.Variants(h2)
	if hit1 {
		t.Fatal("first enumeration reported as cache hit")
	}
	if !hit2 {
		t.Fatal("second handle for the same source should hit the session cache")
	}
	if vs1 != vs2 {
		t.Fatal("cache returned a different variant set for identical source")
	}

	// The event stream reports the hit when a sweep reuses the cache.
	var events []SweepEvent
	if _, err := sess.Sweep([]*core.Shader{h2}, func(ev SweepEvent) { events = append(events, ev) }); err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || !events[0].EnumCached {
		t.Fatalf("sweep event should report EnumCached, got %+v", events)
	}
	if events[0].Workers != sess.Workers() {
		t.Fatalf("event workers = %d, want %d", events[0].Workers, sess.Workers())
	}
}

// assertNoEvictions fails the test if any of the session's caches
// evicted: the default bound must hold a test subset's whole working set,
// so the session is an unbounded reference.
func assertNoEvictions(t *testing.T, sess *Session) {
	t.Helper()
	for name, n := range sess.Metrics().Counters {
		if strings.HasPrefix(name, "cache.") && strings.HasSuffix(name, ".evictions") && n != 0 {
			t.Fatalf("default-bound session evicted: %s = %d", name, n)
		}
	}
}

// TestLoweredCacheBoundedUnderSweep runs a sweep with a tiny cache bound
// and checks measurements still come out byte-identical to a session
// whose default bound never evicts: eviction must trade only time, never
// results.
func TestLoweredCacheBoundedUnderSweep(t *testing.T) {
	opts := Options{Cfg: harness.FastConfig()}
	bounded, err := newSession(gpu.Platforms(), opts, 4).Sweep(compileSubset(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	unboundedSess := NewSession(gpu.Platforms(), opts)
	unbounded, err := unboundedSess.Sweep(compileSubset(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertNoEvictions(t, unboundedSess)
	for i, rb := range bounded.Results {
		ru := unbounded.Results[i]
		for _, pl := range bounded.Platforms {
			if rb.OrigNS[pl.Vendor] != ru.OrigNS[pl.Vendor] {
				t.Fatalf("%s: original time differs between bounded and unbounded caches", rb.Name())
			}
			for hash, ns := range rb.VariantNS[pl.Vendor] {
				if ru.VariantNS[pl.Vendor][hash] != ns {
					t.Fatalf("%s: variant %s differs between bounded and unbounded caches", rb.Name(), hash)
				}
			}
		}
	}
}

// TestMeasCacheBoundedAndEvicts closes the ROADMAP's last unbounded-cache
// item: with a tiny cache bound the measurement-score cache must stay
// within its bound, actually evict under a multi-shader sweep, and — the
// part that matters — re-measure evicted scores bit-identically, so a
// bounded session's sweep equals an unbounded one's. The compile cache
// rides the same bound and is checked alongside.
func TestMeasCacheBoundedAndEvicts(t *testing.T) {
	shaders, err := sweepSubset()
	if err != nil {
		t.Fatal(err)
	}
	const bound = 4 // far below the subset's distinct (vendor, text) count
	sess := newSession(gpu.Platforms(), Options{Cfg: harness.FastConfig(), Workers: 2}, bound)
	handles := make([]*core.Shader, len(shaders))
	for i, s := range shaders {
		h, err := core.Compile(s.Source, s.Name, s.Lang)
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = h
	}
	bounded, err := sess.Sweep(handles, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := sess.Metrics()
	entries, b, evicted := m.Gauges["cache.scores.entries"], m.Gauges["cache.scores.bound"], m.Counters["cache.scores.evictions"]
	if b != bound {
		t.Fatalf("meas cache bound = %d, want %d", b, bound)
	}
	if entries > bound {
		t.Fatalf("meas cache holds %d scores, bound %d", entries, bound)
	}
	if evicted == 0 {
		t.Fatal("sweep across the subset should have evicted scores from a bound-4 cache")
	}
	if centries, cbound := m.Gauges["cache.compile.entries"], m.Gauges["cache.compile.bound"]; cbound != bound || centries > bound {
		t.Fatalf("compile cache %d entries exceeds bound %d", centries, cbound)
	}

	unboundedSess := NewSession(gpu.Platforms(), Options{Cfg: harness.FastConfig()})
	unbounded, err := unboundedSess.Sweep(handles, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertNoEvictions(t, unboundedSess)
	for i, rb := range bounded.Results {
		ru := unbounded.Results[i]
		for _, pl := range gpu.Platforms() {
			if rb.OrigNS[pl.Vendor] != ru.OrigNS[pl.Vendor] {
				t.Fatalf("%s: original differs under meas-cache eviction", rb.Name())
			}
			for hash, ns := range rb.VariantNS[pl.Vendor] {
				if ru.VariantNS[pl.Vendor][hash] != ns {
					t.Fatalf("%s: variant %s differs under meas-cache eviction", rb.Name(), hash)
				}
			}
		}
	}

	// A warm re-sweep on the bounded session still completes and still
	// matches: whatever was evicted is simply measured again.
	again, err := sess.Sweep(handles, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, rb := range bounded.Results {
		ra := again.Results[i]
		for _, pl := range gpu.Platforms() {
			if rb.OrigNS[pl.Vendor] != ra.OrigNS[pl.Vendor] {
				t.Fatalf("%s: re-sweep changed a score under eviction", rb.Name())
			}
		}
	}
}
