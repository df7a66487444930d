package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"strings"
	"time"

	"shaderopt/internal/core"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/passes"
	"shaderopt/internal/search"
	"shaderopt/internal/telemetry"
)

// layerMetrics lists every per-layer metric with its unit. A traced run
// prints all of them; a layer the workload does not run reads 0.
func layerMetrics() map[string]string {
	m := map[string]string{}
	for _, name := range []string{
		"core.compile_s", "core.enum_s", "gpu.frontend_s", "crossc.es_s", "passes.canonicalize_s",
		"core.fingerprint_canonical_s", "crossc.reingest_msl_s", "crossc.reingest_spirv_s", "gpu.compile_s",
		"harness.measure_batch_s", "passes.prepare_s", "core.fingerprint_ir_s",
		"core.fingerprint_canonical_enum_s", "glslgen.generate_s",
		"search.enum_phase_s", "search.measure_phase_s", "analysis_s", "report_s", "runtime.gc_cpu_s",
	} {
		m[name] = "s"
	}
	for _, pl := range gpu.Platforms() {
		m["gpu.compile_"+pl.Vendor+"_s"] = "s"
	}
	for _, st := range passes.FlaggedSteps() {
		m["passes."+passes.FlagName(st.Flag)+"_s"] = "s"
	}
	for _, name := range []string{
		"passes.canonicalize_calls", "crossc.reingest_calls", "gpu.frontend_calls", "crossc.es_calls",
		"gpu.compile_calls", "harness.batches", "harness.samples", "core.enum.steps", "core.enum.nodes",
		"core.enum.collapses", "core.enum.leaves", "store.hits", "store.misses", "store.writes",
		"runtime.gc_cycles", "trace.score_mismatches",
	} {
		m[name] = "count"
	}
	for _, name := range []string{"search.lowered_hit_frac", "search.compile_hit_frac", "core.enum.shared_hit_frac",
		"trace.coverage_frac", "trace.overhead_frac"} {
		m[name] = "fraction"
	}
	for _, name := range []string{"gpu.compile_max_ms", "sweepd.roundtrip_ms", "sweepd.compile_ms", "sweepd.other_ms"} {
		m[name] = "ms"
	}
	m["store.bytes"] = "bytes"
	m["sweepd.resp_bytes"] = "bytes"
	return m
}

// minCoverage is the share of the traced section's wall time the layer
// spans must cover for a whole-corpus run to pass. A test subset is too
// small to amortize the spans' own bookkeeping, so it is not held to it.
const minCoverage = 0.95

// runTraced executes one traced run: the workload's set-up, then its
// layer decomposition, and prints every per-layer metric.
func runTraced(cfg runConfig) (*result, error) {
	gold, err := parseGolden(goldenText)
	if err != nil {
		return nil, err
	}
	e, err := setup(cfg, gold)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r := &result{}
	tr := telemetry.NewTracer()
	if cfg.workload.daemon {
		err = traceDaemon(cfg, e, tr, r)
	} else {
		err = traceStudy(cfg, e, tr, r)
	}
	if err != nil {
		return nil, err
	}
	for name, unit := range layerMetrics() {
		if _, ok := r.Metrics[name]; !ok {
			r.set(name, 0, unit)
		}
	}
	if cfg.traceOut != "" {
		f, err := os.Create(cfg.traceOut)
		if err != nil {
			return nil, err
		}
		if err := tr.WriteJSON(f); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		r.note("trace written to %s", cfg.traceOut)
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	return r, nil
}

// gcReading samples the runtime's cumulative GC CPU time and cycle count.
func gcReading() (cpuS float64, cycles uint64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Uint64()
}

// traceStudy decomposes one study op. A serial reference op runs first
// with the session registry attached, giving the phase split and the
// pipeline's own counters. The replay then rebuilds the op from public
// calls under the benchmark's spans — compile, enumeration over a fresh
// session's shared trie, and, when the reference op measured anything,
// the front end, re-ingest, vendor compile and harness — followed by the
// private enumeration walk. The replay must reproduce the reference op's
// scores bit for bit and its counters exactly.
func traceStudy(cfg runConfig, e *env, tr *telemetry.Tracer, r *result) error {
	reg := telemetry.NewRegistry()
	st, cleanup, err := e.openStore(cfg)
	if err != nil {
		return err
	}
	gc0, cyc0 := gcReading()
	ref, err := runStudy(e.shaders, search.Options{Cfg: harness.FastConfig(), Store: st, Workers: 1, Telemetry: reg}, true)
	gc1, cyc1 := gcReading()
	if st != nil {
		r.set("store.bytes", float64(st.SizeBytes()), "bytes")
	}
	cleanup()
	r.Attempted++
	if err == nil {
		err = e.check(ref)
	}
	if err != nil {
		r.fail("reference op: %v", err)
		return nil
	}
	c := ref.counters
	frac := func(hits, misses string) float64 {
		if n := c[hits] + c[misses]; n > 0 {
			return float64(c[hits]) / float64(n)
		}
		return 0
	}
	r.set("search.enum_phase_s", ref.enumS, "s")
	r.set("search.measure_phase_s", ref.measureS, "s")
	r.set("analysis_s", ref.analysisS, "s")
	r.set("report_s", ref.reportS, "s")
	r.set("runtime.gc_cpu_s", gc1-gc0, "s")
	r.set("runtime.gc_cycles", float64(cyc1-cyc0), "count")
	r.set("search.lowered_hit_frac", frac("cache.lowered.hits", "cache.lowered.misses"), "fraction")
	r.set("search.compile_hit_frac", frac("cache.compile.hits", "cache.compile.misses"), "fraction")
	r.set("core.enum.shared_hit_frac", frac("enum.shared.hits", "enum.shared.misses"), "fraction")
	for _, k := range []string{"steps", "nodes", "collapses", "leaves"} {
		r.set("core.enum."+k, float64(c["enum."+k]), "count")
	}
	r.set("store.hits", float64(c["cache.store.hits"]), "count")
	r.set("store.misses", float64(c["cache.store.misses"]), "count")
	r.set("store.writes", float64(c["store.writes"]), "count")

	// The replay's session exists only to lend its shared trie, wired to
	// the same kind of store the op ran over.
	st, cleanup, err = e.openStore(cfg)
	if err != nil {
		return err
	}
	defer cleanup()
	trie := search.NewSession(gpu.Platforms(), search.Options{Cfg: harness.FastConfig(), Store: st, Workers: 1}).SharedTrie()
	rp := newReplay(tr, harness.FastConfig(), gpu.Platforms())
	measured := c["harness.batches"] > 0

	start := time.Now()
	handles := make([]*core.Shader, len(e.shaders))
	for i, s := range e.shaders {
		rp.span("core.compile", func() { handles[i], err = core.Compile(s.Source, s.Name, s.Lang) })
		if err != nil {
			return err
		}
	}
	replayed := make([]*search.ShaderResult, len(handles))
	for i, h := range handles {
		shader := tr.Start("shader "+h.Name, "container")
		res := &search.ShaderResult{Handle: h, OrigNS: map[string]float64{}, VariantNS: map[string]map[string]float64{}}
		rp.span("core.enum", func() { res.Variants = h.VariantsSharedT(nil, 1, trie) })
		for _, pl := range rp.platforms {
			if !measured {
				break
			}
			if res.OrigNS[pl.Vendor], res.VariantNS[pl.Vendor], err = rp.measure(h, res.Variants, pl); err != nil {
				shader.End()
				return err
			}
		}
		shader.End()
		replayed[i] = res
	}
	var steps int64
	walks := make([][]walkVariant, len(handles))
	for i, h := range handles {
		var n int64
		walks[i], n = rp.enumWalk(h)
		steps += n
	}
	wall := since(start)

	refByName := map[string]*search.ShaderResult{}
	for _, res := range ref.results {
		refByName[res.Name()] = res
	}
	mismatches, walkMismatches := 0, 0
	for i, res := range replayed {
		want := refByName[res.Name()]
		if !measured { // compare variant sets only
			want = &search.ShaderResult{Handle: want.Handle, Variants: want.Variants}
		}
		if !sameVariants(walkOf(res.Variants), want.Variants) || digestOf(res) != digestOf(want) {
			mismatches++
		}
		if !sameVariants(walks[i], res.Variants) {
			walkMismatches++
		}
	}

	agg, err := aggregateSpans(tr)
	if err != nil {
		return err
	}
	setSpanMetrics(r, agg)
	r.set("harness.batches", float64(rp.counts.batches), "count")
	r.set("harness.samples", float64(rp.counts.samples), "count")
	coverage := agg.leafSelf / wall
	refWall := ref.compileS + ref.enumS
	if measured {
		refWall += ref.measureS
	}
	// The same phases untraced: the replay's handle compile, enumeration
	// and (when replayed) measurement against the reference op's.
	replayWall := agg.self["core.compile"] + agg.self["core.enum"] + agg.replayMeasureS()
	r.set("trace.coverage_frac", coverage, "fraction")
	r.set("trace.overhead_frac", replayWall/refWall-1, "fraction")
	r.set("trace.score_mismatches", float64(mismatches), "count")

	// The fidelity gate: the replay must model the pipeline it claims to.
	r.Attempted++
	gate := []struct {
		what        string
		replay, reg int64
	}{
		{"enum.steps", steps, c["enum.steps"]},
		{"gpu.compiles", rp.counts.compiles, c["gpu.compiles"]},
		{"cache.lowered.misses", rp.counts.frontEnds, c["cache.lowered.misses"]},
		{"harness.batches", rp.counts.batches, c["harness.batches"]},
	}
	var problems []string
	for _, g := range gate {
		r.note("replay %s %d, registry %d", g.what, g.replay, g.reg)
		if g.replay != g.reg {
			problems = append(problems, fmt.Sprintf("%s: replay %d, registry %d", g.what, g.replay, g.reg))
		}
	}
	if mismatches > 0 {
		problems = append(problems, fmt.Sprintf("%d shader(s) replayed differently from the reference op", mismatches))
	}
	if walkMismatches > 0 {
		problems = append(problems, fmt.Sprintf("the private enumeration walk differs from VariantsN(1) on %d shader(s)", walkMismatches))
	}
	if e.full && coverage < minCoverage {
		problems = append(problems, fmt.Sprintf("spans cover %.1f%% of the replay, below %.0f%%", 100*coverage, 100*minCoverage))
	}
	if len(problems) > 0 {
		r.fail("replay fidelity: %v", problems)
	}
	return nil
}

// walkOf lists a variant set in the walk's form, to compare two sets.
func walkOf(vs *core.VariantSet) []walkVariant {
	out := make([]walkVariant, len(vs.Variants))
	for i, v := range vs.Variants {
		out[i] = walkVariant{hash: v.Hash, flagSets: v.FlagSets}
	}
	return out
}

// digestOf is the golden digest of one shader's scores.
func digestOf(res *search.ShaderResult) string {
	_, d := shaderDigest(scoresOf([]*search.ShaderResult{res})[0])
	return d
}

// traceDaemon decomposes daemon requests: the workload's client sends its
// seeded sequence for the window, each round trip under a span, and after
// each response the benchmark replays core.Compile of the request's
// sources under another, splitting the round trip into the frontend
// compile and everything else (HTTP, JSON, cache lookups).
func traceDaemon(cfg runConfig, e *env, tr *telemetry.Tracer, r *result) error {
	d := newDaemonClient(e, cfg.seed)
	defer d.close()
	gc0, cyc0 := gcReading()
	start := time.Now()
	for time.Since(start) < cfg.window && (cfg.maxOps <= 0 || r.Attempted < cfg.maxOps) {
		i := d.next()
		s := tr.Start("sweepd.roundtrip", "layer")
		_, err := d.send(i)
		s.End()
		r.Attempted++
		if err != nil {
			r.fail("request: %v", err)
			continue
		}
		s = tr.Start("sweepd.compile", "layer")
		for _, src := range d.requests[i].Shaders {
			lang, err := core.ParseLang(src.Lang)
			if err == nil {
				_, err = core.Compile(src.Source, src.Name, lang)
			}
			if err != nil {
				s.End()
				return err
			}
		}
		s.End()
	}
	wall := since(start)
	gc1, cyc1 := gcReading()
	d.check(e.gold, r)
	agg, err := aggregateSpans(tr)
	if err != nil {
		return err
	}
	n := float64(agg.calls["sweepd.roundtrip"])
	roundtrip := 1e3 * agg.self["sweepd.roundtrip"] / n
	compile := 1e3 * agg.self["sweepd.compile"] / n
	r.set("sweepd.roundtrip_ms", roundtrip, "ms")
	r.set("sweepd.compile_ms", compile, "ms")
	r.set("sweepd.other_ms", roundtrip-compile, "ms")
	r.set("sweepd.resp_bytes", float64(d.received)/n, "bytes")
	r.set("runtime.gc_cpu_s", gc1-gc0, "s")
	r.set("runtime.gc_cycles", float64(cyc1-cyc0), "count")
	r.set("trace.coverage_frac", agg.leafSelf/wall, "fraction")
	r.note("daemon trace: %d serial requests", r.Attempted)
	return nil
}

// spanAgg sums the traced spans by name.
type spanAgg struct {
	self     map[string]float64 // seconds of self time
	calls    map[string]int64
	maxDur   map[string]float64 // seconds
	leafSelf float64            // self time of every layer span
}

// aggregateSpans reads the tracer's Chrome JSON back and computes each
// span's self time: its duration minus the time its children cover. The
// traced code is serial, so spans nest strictly.
func aggregateSpans(tr *telemetry.Tracer) (*spanAgg, error) {
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		return nil, err
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	evs := doc.TraceEvents // ordered by start time, parents before children
	self := make([]float64, len(evs))
	var stack []int
	for i, ev := range evs {
		for len(stack) > 0 {
			top := evs[stack[len(stack)-1]]
			if top.TS+top.Dur > ev.TS {
				break
			}
			stack = stack[:len(stack)-1]
		}
		self[i] = ev.Dur
		if len(stack) > 0 {
			self[stack[len(stack)-1]] -= ev.Dur
		}
		stack = append(stack, i)
	}
	agg := &spanAgg{self: map[string]float64{}, calls: map[string]int64{}, maxDur: map[string]float64{}}
	for i, ev := range evs {
		s := self[i] / 1e6
		agg.self[ev.Name] += s
		agg.calls[ev.Name]++
		agg.maxDur[ev.Name] = math.Max(agg.maxDur[ev.Name], ev.Dur/1e6)
		if ev.Cat == "layer" {
			agg.leafSelf += s
		}
	}
	return agg, nil
}

// replayMeasureS is the replay's measurement-side span time: everything
// a Sweep does after enumeration.
func (a *spanAgg) replayMeasureS() float64 {
	t := a.self["gpu.frontend"] + a.self["crossc.es"] + a.self["passes.canonicalize"] +
		a.self["core.fingerprint_canonical"] + a.self["crossc.reingest_msl"] + a.self["crossc.reingest_spirv"] +
		a.self["harness.measure_batch"]
	for _, pl := range gpu.Platforms() {
		t += a.self["gpu.compile_"+pl.Vendor]
	}
	return t
}

// setSpanMetrics turns the replay's span sums into per-layer metrics.
func setSpanMetrics(r *result, agg *spanAgg) {
	for name, unit := range layerMetrics() {
		base, ok := strings.CutSuffix(name, "_s")
		if !ok || unit != "s" {
			continue
		}
		if _, ok := agg.calls[base]; ok {
			r.set(name, agg.self[base], "s")
		}
	}
	var compileS, compileMax float64
	var compileCalls int64
	for _, pl := range gpu.Platforms() {
		n := "gpu.compile_" + pl.Vendor
		compileS += agg.self[n]
		compileCalls += agg.calls[n]
		compileMax = math.Max(compileMax, agg.maxDur[n])
	}
	r.set("gpu.compile_s", compileS, "s")
	r.set("gpu.compile_calls", float64(compileCalls), "count")
	r.set("gpu.compile_max_ms", 1e3*compileMax, "ms")
	r.set("passes.canonicalize_calls", float64(agg.calls["passes.canonicalize"]), "count")
	r.set("crossc.reingest_calls", float64(agg.calls["crossc.reingest_msl"]+agg.calls["crossc.reingest_spirv"]), "count")
	r.set("gpu.frontend_calls", float64(agg.calls["gpu.frontend"]), "count")
	r.set("crossc.es_calls", float64(agg.calls["crossc.es"]), "count")
}
