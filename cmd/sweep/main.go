// Command sweep regenerates the paper's tables and figures: it runs the
// exhaustive 256-flag-combination study over the shader corpus — the
// synthetic GFXBench-like GLSL suite plus the native WGSL and HLSL
// families — on all five simulated platforms and renders each experiment.
// -lang restricts the corpus to one source language.
//
// -report renders the comparative study layer on top of the same sweep:
// "transfer" prints the language×language and backend×backend transfer
// matrices (the best static set learned on one group applied to every
// other, with the pinned GLSL↔HLSL twin cells computed exactly) plus a
// grep-able "Headline:" line per axis; "groups" prints Table I / Fig. 5
// re-learned per source language and per ingestion format. Both compose
// with -lang, -backend, and -server.
//
// Usage:
//
//	sweep -exp all
//	sweep -exp table1,fig5,fig9 -fast
//	sweep -exp fig7 -platform ARM
//	sweep -lang wgsl -exp table1 -fast
//	sweep -lang hlsl -exp table1,fig5 -fast
//	sweep -lang glsl -fast -trace out.json -metrics
//	sweep -report transfer -fast
//	sweep -report transfer,groups -server 127.0.0.1:7077 -fast
//	sweep -fast -debug-addr localhost:6060
//	sweep -fast -server 127.0.0.1:7077
//
// With -server the command runs as a thin client of a sweepd daemon: it
// submits the corpus sources to the service, which measures them through
// its shared warm session and persistent store, streams back per-shader
// progress, and returns every score; enumeration and report rendering
// stay local (they are deterministic, so the locally enumerated variant
// hashes join the returned scores exactly).
package main

import (
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"

	"shaderopt"
	"shaderopt/internal/analysis"
	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/report"
	"shaderopt/internal/search"
	"shaderopt/internal/sweepd"
)

// cliConfig carries the flag values into run.
type cliConfig struct {
	exp, platform, lang string
	backend             string
	reports             string
	expSet              bool
	fast                bool
	workers             int
	traceOut            string
	metrics             bool
	debugAddr           string
	server              string
}

func main() {
	var c cliConfig
	flag.StringVar(&c.exp, "exp", "all", "experiments: all | fig3,fig4a,fig4b,fig4c,fig5,fig6,fig7,fig8,fig9,table1")
	flag.StringVar(&c.reports, "report", "", "comparative study reports: transfer (cross-language/cross-backend matrices) and/or groups (Table I / Fig. 5 per language and per ingestion format)")
	flag.StringVar(&c.platform, "platform", "", "restrict per-platform figures (7, 9) to one vendor")
	flag.StringVar(&c.lang, "lang", "all", "restrict the corpus by source language: all|glsl|wgsl|hlsl|msl")
	flag.StringVar(&c.backend, "backend", "", "override every platform's driver ingestion format: glsl|msl|spirv (default: each platform's own assignment)")
	flag.BoolVar(&c.fast, "fast", false, "use the reduced measurement protocol (fewer frames/repeats)")
	flag.IntVar(&c.workers, "workers", 0, "worker pool size for the sweep and the sharded variant enumeration (0 = GOMAXPROCS)")
	flag.StringVar(&c.traceOut, "trace", "", "write the run's spans as Chrome trace-event JSON to this file (load in chrome://tracing or Perfetto)")
	flag.BoolVar(&c.metrics, "metrics", false, "print the end-of-run telemetry metrics table to stdout")
	flag.StringVar(&c.debugAddr, "debug-addr", "", "serve expvar (/debug/vars) and net/http/pprof (/debug/pprof/) on this address for the run's duration")
	flag.StringVar(&c.server, "server", "", "run as a thin client of a sweepd daemon at this address (host:port or URL) instead of measuring locally")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "exp" {
			c.expSet = true
		}
	})

	if err := run(c, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

// run executes one invocation, writing its reports to stdout.
func run(c cliConfig, stdout io.Writer) error {
	expList, platformFilter, langFilter := c.exp, c.platform, c.lang
	fast, workers := c.fast, c.workers
	if c.backend != "" && c.server != "" {
		return fmt.Errorf("-backend overrides local platforms only; a sweepd server measures with its own roster")
	}

	// One registry observes the whole run: corpus compiles, enumeration,
	// driver compiles, and the measurement harness all report into it.
	reg := shaderopt.NewTelemetry()
	var tracer *shaderopt.Tracer
	if c.traceOut != "" {
		tracer = shaderopt.NewTracer()
		reg.SetTracer(tracer)
	}
	if c.debugAddr != "" {
		expvar.Publish("shaderopt", expvar.Func(func() any { return reg.Snapshot() }))
		go func() {
			// expvar and pprof register themselves on the default mux.
			if err := http.ListenAndServe(c.debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "sweep: debug server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug server on http://%s/debug/pprof/ and /debug/vars\n", c.debugAddr)
	}
	// finish emits the observability outputs once the run is done; the
	// snapshot argument lets the sweep path pass the gauge-refreshed one.
	finish := func(snap *shaderopt.TelemetrySnapshot) error {
		if c.metrics {
			fmt.Fprintln(stdout, snap.Table())
		}
		if c.traceOut != "" {
			f, err := os.Create(c.traceOut)
			if err != nil {
				return err
			}
			if err := tracer.WriteJSON(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "trace written to %s (load in chrome://tracing or Perfetto)\n", c.traceOut)
		}
		return nil
	}
	reports := map[string]bool{}
	if c.reports != "" {
		for _, r := range strings.Split(c.reports, ",") {
			r = strings.TrimSpace(strings.ToLower(r))
			if r != "transfer" && r != "groups" {
				return fmt.Errorf("unknown -report %q (want transfer and/or groups)", r)
			}
			reports[r] = true
		}
		// -report alone means just the comparative reports; an explicit
		// -exp composes with them.
		if !c.expSet {
			expList = ""
		}
	}
	want := map[string]bool{}
	for _, e := range strings.Split(expList, ",") {
		want[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := want["all"]
	has := func(name string) bool { return all || want[name] }

	shaders, err := corpus.Load()
	if err != nil {
		return err
	}
	if langFilter != "" && langFilter != "all" {
		want, err := core.ParseLang(langFilter)
		if err != nil {
			return err
		}
		var kept []*corpus.Shader
		for _, s := range shaders {
			if s.Lang == want {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			return fmt.Errorf("no %s shaders in the corpus", want)
		}
		shaders = kept
	}
	platforms := gpu.Platforms()
	if c.backend != "" {
		// Pin one ingestion format across the roster: every driver receives
		// the same backend's output, isolating the format's own artefacts
		// from the per-vendor assignment.
		b, err := core.ParseBackend(c.backend)
		if err != nil {
			return err
		}
		for _, p := range platforms {
			p.Ingest = b.String()
		}
	}
	if _, err := rosterVendor(platforms, platformFilter); platformFilter != "" && err != nil {
		return fmt.Errorf("-platform: %w", err)
	}
	labels := make([]string, len(platforms))
	for i, p := range platforms {
		labels[i] = fmt.Sprintf("%s(%s)", p.Vendor, p.Ingest)
	}
	fmt.Fprintf(stdout, "Corpus: %d fragment shaders in %d families; platforms: %s\n\n",
		len(shaders), len(corpus.FamilyNames()), strings.Join(labels, ", "))

	// Static characterizations don't need measurements.
	if has("fig4a") {
		fmt.Fprintln(stdout, report.Fig4a(analysis.LinesOfCode(shaders)))
	}
	if has("fig4b") {
		cyc, err := analysis.ARMStaticCycles(shaders)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, report.Fig4b(cyc))
	}
	if has("fig4c") {
		uni, err := analysis.UniqueVariants(shaders)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, report.Fig4c(uni))
	}

	needSweep := has("fig3") || has("fig5") || has("fig6") || has("fig7") || has("fig8") || has("fig9") || has("table1") ||
		reports["transfer"] || reports["groups"]
	if !needSweep {
		return finish(reg.Snapshot())
	}

	cfg := harness.DefaultConfig()
	protocol := "default"
	if fast {
		cfg = harness.FastConfig()
		protocol = "fast"
	}
	var sweep *search.Sweep
	// finalSnap is the telemetry snapshot finish renders: the session's
	// gauge-refreshed one locally, the plain registry remotely.
	var finalSnap func() *shaderopt.TelemetrySnapshot
	if c.server != "" {
		var err error
		sweep, err = remoteSweep(stdout, c.server, protocol, reg, shaders, platforms, cfg, workers)
		if err != nil {
			return err
		}
		finalSnap = reg.Snapshot
	} else {
		// Compile once per shader, then sweep the handles through a session:
		// the measurement cache guarantees each distinct variant is measured
		// exactly once, and the event stream gives live per-shader progress —
		// including how long the sharded variant enumeration took per shader,
		// so the -workers effect is visible as the sweep streams.
		handles, err := shaderopt.CompileCorpus(shaders, shaderopt.WithTelemetry(reg))
		if err != nil {
			return err
		}
		sess := shaderopt.NewSession(
			shaderopt.WithProtocol(cfg),
			shaderopt.WithPlatforms(platforms...),
			shaderopt.WithWorkers(workers),
			shaderopt.WithTelemetry(reg))
		fmt.Fprintf(stdout, "Running exhaustive sweep (256 flag combinations per shader, %d workers)...\n", sess.Workers())
		sweep, err = sess.Sweep(handles, func(ev shaderopt.SweepEvent) {
			fmt.Fprintln(os.Stderr, renderEvent(ev))
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, renderSummary(sessionStats(sess)))
		fmt.Fprintln(os.Stderr, renderAggregate(sweep.Stats))
		finalSnap = sess.Metrics
	}
	fmt.Fprintln(stdout)

	// The analyses run before any of their output is rendered, each phase
	// under its own span, so a trace splits the report path in two.
	var renders []func() string
	phase(reg, "analysis", func() {
		renders, err = analyze(sweep, has, reports, platformFilter)
	})
	phase(reg, "report", func() {
		// An empty text (the headline of a one-group matrix) prints nothing.
		for _, render := range renders {
			if text := render(); text != "" {
				fmt.Fprintln(stdout, text)
			}
		}
	})
	if err != nil {
		return err
	}
	return finish(finalSnap())
}

// phase runs f under a span named for its layer. With no tracer attached
// the span is nil and costs nothing.
func phase(reg *shaderopt.Telemetry, layer string, f func()) {
	span := reg.StartSpan(layer, layer)
	f()
	span.End()
}

// analyze computes every requested experiment and report over the sweep
// and returns, in output order, the functions that render them. Every
// figure reads its scores by, and prints, the vendors of sweep.Platforms;
// platformFilter, when set, names one of them. On an error it returns the
// renderers of the experiments before it.
func analyze(sweep *search.Sweep, has func(string) bool, reports map[string]bool, platformFilter string) ([]func() string, error) {
	var renders []func() string
	show := func(render func() string) { renders = append(renders, render) }
	vendors := make([]string, len(sweep.Platforms))
	for i, p := range sweep.Platforms {
		vendors[i] = p.Vendor
	}
	if has("table1") || has("fig5") {
		rows := make([]search.MeanSpeedups, len(vendors))
		for i, v := range vendors {
			rows[i] = sweep.MeanSpeedups(v)
		}
		if has("table1") {
			show(func() string { return report.Table1(rows) })
		}
		if has("fig5") {
			show(func() string { return report.Fig5(rows) })
		}
	}
	if has("fig6") {
		means := make([]float64, len(vendors))
		for i, v := range vendors {
			means[i] = sweep.Top30Mean(v)
		}
		show(func() string { return report.Fig6(vendors, means) })
	}
	if has("fig7") {
		for _, v := range vendors {
			if platformFilter != "" && v != platformFilter {
				continue
			}
			per := sweep.PerShaderSpeedups(v)
			show(func() string { return report.Fig7(v, per, 15) })
		}
	}
	if has("fig8") {
		fa := sweep.FlagApplicabilities()
		show(func() string { return report.Fig8(fa, vendors) })
	}
	if has("fig9") {
		for _, v := range vendors {
			if platformFilter != "" && v != platformFilter {
				continue
			}
			iso := sweep.FlagIsolation(v)
			show(func() string { return report.Fig9(v, iso) })
		}
	}
	if has("fig3") {
		me := corpus.MotivatingExample()
		r := sweep.ResultFor(me.Name)
		if r == nil {
			return renders, fmt.Errorf("fig3 needs the motivating example %s (filtered out by -lang?)", me.Name)
		}
		// The paper's histogram platform is the Mali GPU.
		hist, err := rosterVendor(sweep.Platforms, "ARM")
		if err != nil {
			return renders, fmt.Errorf("fig3: %w", err)
		}
		gains := make([]float64, len(vendors))
		for i, v := range vendors {
			gains[i] = r.BestSpeedup(v)
		}
		dist := sweep.SpeedupDistribution(hist, core.AllFlags)
		show(func() string { return report.Fig3(vendors, gains, hist, dist) })
	}
	if reports["groups"] {
		lang, backend := analysis.LangGroupMeans(sweep), analysis.BackendGroupMeans(sweep)
		show(func() string { return report.Table1Grouped("language", lang) })
		show(func() string { return report.Fig5Grouped("language", lang) })
		show(func() string { return report.Table1Grouped("backend", backend) })
		show(func() string { return report.Fig5Grouped("backend", backend) })
	}
	if reports["transfer"] {
		lm := analysis.LangTransferMatrix(sweep)
		bm := analysis.BackendTransferMatrix(sweep)
		show(func() string { return report.TransferMatrix(lm) })
		show(func() string { return report.TransferMatrix(bm) })
		show(func() string { return report.TransferHeadline(lm) })
		show(func() string { return report.TransferHeadline(bm) })
	}
	return renders, nil
}

// rosterVendor returns name if it is the vendor of one of platforms, and
// otherwise an error listing the roster's vendors.
func rosterVendor(platforms []*gpu.Platform, name string) (string, error) {
	vendors := make([]string, len(platforms))
	for i, p := range platforms {
		if p.Vendor == name {
			return name, nil
		}
		vendors[i] = p.Vendor
	}
	return "", fmt.Errorf("no platform %q in the roster (%s)", name, strings.Join(vendors, ", "))
}

// remoteSweep runs the study through a sweepd daemon: corpus sources go
// over the wire, measurement happens in the service's shared warm
// session, and the streamed scores are joined to a local (deterministic)
// variant enumeration so every report renders exactly as it would from a
// local sweep. A response that lacks a score for any vendor of platforms
// or any locally enumerated variant is an error, not a zero.
func remoteSweep(stdout io.Writer, addr, protocol string, reg *shaderopt.Telemetry, shaders []*corpus.Shader, platforms []*gpu.Platform, cfg harness.Config, workers int) (*search.Sweep, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	client := &sweepd.Client{BaseURL: addr}
	if err := client.Health(); err != nil {
		return nil, fmt.Errorf("sweepd at %s: %w", addr, err)
	}
	req := sweepd.SweepRequest{Protocol: protocol}
	for _, s := range shaders {
		req.Shaders = append(req.Shaders, sweepd.ShaderSource{
			Name: s.Name, Source: s.Source, Lang: s.Lang.String(),
		})
	}
	fmt.Fprintf(stdout, "Submitting sweep of %d shaders to %s (protocol %s)...\n", len(shaders), addr, protocol)
	scores, err := client.Sweep(req, func(ev search.SweepEvent) {
		fmt.Fprintln(os.Stderr, renderEvent(ev))
	})
	if err != nil {
		return nil, err
	}
	if len(scores) != len(shaders) {
		return nil, fmt.Errorf("sweepd returned %d results for %d shaders", len(scores), len(shaders))
	}
	results := make([]*search.ShaderResult, len(shaders))
	for i, s := range shaders {
		if scores[i].Name != s.Name {
			return nil, fmt.Errorf("sweepd result order differs: %s vs %s", scores[i].Name, s.Name)
		}
		h, err := core.CompileT(reg, s.Source, s.Name, s.Lang)
		if err != nil {
			return nil, err
		}
		vs := h.VariantsSharedT(reg, workers, nil)
		for _, p := range platforms {
			_, ok := scores[i].Orig[p.Vendor]
			for _, v := range vs.Variants {
				if _, hit := scores[i].Variants[p.Vendor][v.Hash]; !hit {
					ok = false
				}
			}
			if !ok {
				return nil, fmt.Errorf("sweepd returned incomplete %s scores for %s (does its roster include %s?)", p.Vendor, s.Name, p.Vendor)
			}
		}
		results[i] = &search.ShaderResult{
			Handle:    h,
			Variants:  vs,
			OrigNS:    scores[i].Orig,
			VariantNS: scores[i].Variants,
		}
	}
	return &search.Sweep{Platforms: platforms, Results: results, Cfg: cfg}, nil
}
