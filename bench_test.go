package shaderopt

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run `go test -bench=. -benchmem`). Each BenchmarkFig*/
// BenchmarkTable1 benchmark executes the corresponding experiment pipeline
// and reports the headline quantities via b.ReportMetric, so a benchmark
// run doubles as a reproduction record. cmd/sweep renders the same
// experiments as full text reports over the whole corpus.
//
// Figure benchmarks use a fixed, behaviour-diverse 12-shader slice of the
// corpus with the reduced measurement protocol so a full -bench=. pass
// stays in CI-friendly time; `go run ./cmd/sweep -exp all` is the
// full-corpus version.

import (
	"testing"

	"shaderopt/internal/analysis"
	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/exec"
	"shaderopt/internal/glsl"
	"shaderopt/internal/glslgen"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/hlsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/lower"
	"shaderopt/internal/msl"
	"shaderopt/internal/oracle"
	"shaderopt/internal/passes"
	"shaderopt/internal/search"
	"shaderopt/internal/spirvgen"
	"shaderopt/internal/wgsl"
)

// benchNames is the fixed experiment subset: loop shaders, übershader
// instances, matrix shaders, branch-heavy shaders, and the trivial tail.
var benchNames = []string{
	"blur/v9", "godrays/s32", "pbr/l2_spec", "pbr/l4_spec_full",
	"tonemap/filmic_full", "fxaa/hq", "projtex/compose", "relief/basic",
	"alu/d3", "water/full", "ui/flat", "simple/luma",
}

func benchShaders(b *testing.B) []*corpus.Shader {
	b.Helper()
	all := corpus.MustLoad()
	var out []*corpus.Shader
	for _, n := range benchNames {
		s := corpus.ByName(all, n)
		if s == nil {
			b.Fatalf("missing corpus shader %s", n)
		}
		out = append(out, s)
	}
	return out
}

func benchSweep(b *testing.B) *search.Sweep {
	b.Helper()
	return sweepHandles(b, compileHandles(b, benchShaders(b)), 0)
}

// BenchmarkFig3Motivating reproduces Figure 3: the Listing 1 blur shader's
// best-variant speed-up on each platform, plus the ARM distribution spread
// of applying one fixed optimization to every shader.
func BenchmarkFig3Motivating(b *testing.B) {
	me := corpus.MotivatingExample()
	cfg := harness.FastConfig()
	var gains map[string]float64
	for i := 0; i < b.N; i++ {
		h, err := core.Compile(me.Source, me.Name, core.LangAuto)
		if err != nil {
			b.Fatal(err)
		}
		vs := h.Variants()
		gains = map[string]float64{}
		for _, pl := range gpu.Platforms() {
			orig, err := harness.MeasureSource(pl, me.Source, cfg)
			if err != nil {
				b.Fatal(err)
			}
			best := orig.Score()
			for _, v := range vs.Variants {
				m, err := harness.MeasureSource(pl, v.Source, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if m.Score() < best {
					best = m.Score()
				}
			}
			gains[pl.Vendor] = harness.Speedup(orig.Score(), best)
		}
	}
	for vendor, g := range gains {
		b.ReportMetric(g, "pct_gain_"+vendor)
	}
}

// BenchmarkFig4aLinesOfCode reproduces Figure 4a over the full corpus.
func BenchmarkFig4aLinesOfCode(b *testing.B) {
	shaders := corpus.MustLoad()
	var locs []analysis.LoC
	for i := 0; i < b.N; i++ {
		locs = analysis.LinesOfCode(shaders)
	}
	under50 := 0
	for _, l := range locs {
		if l.Lines < 50 {
			under50++
		}
	}
	b.ReportMetric(float64(locs[0].Lines), "max_lines")
	b.ReportMetric(100*float64(under50)/float64(len(locs)), "pct_under50")
}

// BenchmarkFig4bStaticCycles reproduces Figure 4b: the ARM static analyser
// over the corpus subset.
func BenchmarkFig4bStaticCycles(b *testing.B) {
	shaders := benchShaders(b)
	var cyc []analysis.StaticCycles
	var err error
	for i := 0; i < b.N; i++ {
		cyc, err = analysis.ARMStaticCycles(shaders)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cyc[0].Total(), "max_cycles")
	b.ReportMetric(cyc[len(cyc)-1].Total(), "min_cycles")
}

// BenchmarkFig4cUniqueVariants reproduces Figure 4c on the subset.
func BenchmarkFig4cUniqueVariants(b *testing.B) {
	shaders := benchShaders(b)
	var uni []analysis.Uniqueness
	var err error
	for i := 0; i < b.N; i++ {
		uni, err = analysis.UniqueVariants(shaders)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(uni[0].Unique), "max_variants")
	under10 := 0
	for _, u := range uni {
		if u.Unique < 10 {
			under10++
		}
	}
	b.ReportMetric(float64(under10), "shaders_under10")
}

// BenchmarkFig5OverallSpeedup reproduces Figure 5: mean best / default /
// best-static speed-ups per platform.
func BenchmarkFig5OverallSpeedup(b *testing.B) {
	var rows []search.MeanSpeedups
	for i := 0; i < b.N; i++ {
		sweep := benchSweep(b)
		rows = rows[:0]
		for _, pl := range sweep.Platforms {
			rows = append(rows, sweep.MeanSpeedups(pl.Vendor))
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.Best, "best_"+r.Vendor)
		b.ReportMetric(r.Default, "default_"+r.Vendor)
	}
}

// BenchmarkFig6Top30 reproduces Figure 6 (top-30 becomes top-N on the
// subset).
func BenchmarkFig6Top30(b *testing.B) {
	var means map[string]float64
	for i := 0; i < b.N; i++ {
		sweep := benchSweep(b)
		means = map[string]float64{}
		for _, pl := range sweep.Platforms {
			means[pl.Vendor] = sweep.Top30Mean(pl.Vendor)
		}
	}
	for vendor, m := range means {
		b.ReportMetric(m, "top_mean_"+vendor)
	}
}

// BenchmarkTable1BestStaticFlags reproduces Table I: the argmax over all
// 256 flag sets per platform.
func BenchmarkTable1BestStaticFlags(b *testing.B) {
	var flags map[string]core.Flags
	for i := 0; i < b.N; i++ {
		sweep := benchSweep(b)
		flags = map[string]core.Flags{}
		for _, pl := range sweep.Platforms {
			f, _ := sweep.BestStaticFlags(pl.Vendor)
			flags[pl.Vendor] = f
		}
	}
	for vendor, f := range flags {
		b.ReportMetric(float64(f), "flagbits_"+vendor)
	}
}

// BenchmarkFig7PerShaderDistributions reproduces Figure 7: per-shader
// best/default/static speed-up series per platform.
func BenchmarkFig7PerShaderDistributions(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		sweep := benchSweep(b)
		per := sweep.PerShaderSpeedups("ARM")
		spread = per[0].Best - per[len(per)-1].Best
	}
	b.ReportMetric(spread, "ARM_best_spread_pct")
}

// BenchmarkFig8FlagApplicability reproduces Figure 8: per-flag
// total/changes/optimal counts.
func BenchmarkFig8FlagApplicability(b *testing.B) {
	var apps []search.FlagApplicability
	for i := 0; i < b.N; i++ {
		sweep := benchSweep(b)
		apps = sweep.FlagApplicabilities()
	}
	for _, a := range apps {
		b.ReportMetric(float64(a.ChangesCode), "chg_"+passes.FlagName(a.Flag))
	}
}

// BenchmarkFig9FlagIsolation reproduces Figure 9: isolated per-flag impact
// vs the all-off baseline on ARM and Qualcomm (the paper's most
// interesting columns).
func BenchmarkFig9FlagIsolation(b *testing.B) {
	var armUnrollMax, qcFPRMax float64
	for i := 0; i < b.N; i++ {
		sweep := benchSweep(b)
		arm := sweep.FlagIsolation("ARM")
		qc := sweep.FlagIsolation("Qualcomm")
		armUnrollMax, qcFPRMax = 0, 0
		for _, v := range arm[core.FlagUnroll] {
			if v > armUnrollMax {
				armUnrollMax = v
			}
		}
		for _, v := range qc[core.FlagFPReassociate] {
			if v > qcFPRMax {
				qcFPRMax = v
			}
		}
	}
	b.ReportMetric(armUnrollMax, "ARM_unroll_peak_pct")
	b.ReportMetric(qcFPRMax, "Qualcomm_fpreassoc_peak_pct")
}

// --- compiled-handle sweep through the facade ---

// sweepBenchNames is a deliberately small cross-frontend subset so the
// facade sweep benchmark stays CI-friendly at -benchtime=1x.
var sweepBenchNames = []string{"blur/v9", "projtex/compose", "wgsl/ripple"}

func sweepBenchShaders(b *testing.B) []*corpus.Shader {
	b.Helper()
	all := corpus.MustLoad()
	var out []*corpus.Shader
	for _, n := range sweepBenchNames {
		s := corpus.ByName(all, n)
		if s == nil {
			b.Fatalf("missing corpus shader %s", n)
		}
		out = append(out, s)
	}
	return out
}

// BenchmarkSweepCompiledHandles is the study through the facade's handle
// API: handles compiled once (enumeration hoisted into setup), a fresh
// Session per iteration owning the measurement cache, the ES-conversion
// table, and the shared driver front-end lowering. Single-threaded, and
// frontend_parses/op must stay 0: every sweep reuses the handles' IR.
func BenchmarkSweepCompiledHandles(b *testing.B) {
	shaders := sweepBenchShaders(b)
	handles, err := CompileCorpus(shaders)
	if err != nil {
		b.Fatal(err)
	}
	for _, h := range handles {
		h.Variants()
	}
	parses0 := core.FrontendParses()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess := NewSession(WithProtocol(FastProtocol()), WithWorkers(1))
		if _, err := sess.Sweep(handles, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(core.FrontendParses()-parses0)/float64(b.N), "frontend_parses/op")
}

// --- batched vs legacy per-variant measurement (cold sweep) ---

// The cold-sweep pair is the PR 4 head-to-head: the same corpus subset
// swept through a fresh session each iteration — every driver compile and
// every sample paid inside the timed loop — by the batched pipeline
// (platform-grouped batches, the (vendor, IR fingerprint) compile cache,
// one harness pass per batch) and by the legacy per-variant pipeline (an
// independent harness.MeasureSource per (variant, platform)). Variant
// enumeration is identical in both paths and gated separately (the
// EnumerateCorpus pair), so it is hoisted into setup, the way the PR 2
// sweep pair hoists it. Scores are byte-identical (pinned by the
// harness-equivalence suite); the ns/op gap is the measurement-pipeline
// win, gated in CI by TestHarnessSpeedupRegression on a cache-heavy
// subset. Single-threaded so the comparison isolates pipeline structure,
// not scheduling.

func benchSweepCold(b *testing.B, run func(handles []*core.Shader) error) {
	shaders := benchShaders(b)
	handles := make([]*core.Shader, len(shaders))
	for j, s := range shaders {
		h, err := core.Compile(s.Source, s.Name, s.Lang)
		if err != nil {
			b.Fatal(err)
		}
		h.Variants()
		handles[j] = h
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(handles); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepColdBatched is the batched measurement pipeline, a fresh
// session per iteration.
func BenchmarkSweepColdBatched(b *testing.B) {
	benchSweepCold(b, func(handles []*core.Shader) error {
		sess := search.NewSession(gpu.Platforms(), search.Options{Cfg: harness.FastConfig(), Workers: 1})
		_, err := sess.Sweep(handles, nil)
		return err
	})
}

// BenchmarkSweepColdLegacy is the per-variant reference pipeline
// (oracle.Sweep).
func BenchmarkSweepColdLegacy(b *testing.B) {
	benchSweepCold(b, func(handles []*core.Shader) error {
		_, err := oracle.Sweep(handles, gpu.Platforms(), harness.FastConfig())
		return err
	})
}

// --- memoized vs legacy variant enumeration ---

// The enumeration pair is the tentpole head-to-head: the same corpus
// subset enumerated at all 256 combinations by the clone-per-combination
// reference path and by the trie-memoized path (which computes each
// distinct intermediate IR once and runs codegen once per distinct
// result). Outputs are byte-identical (pinned by
// TestMemoizedEnumerationMatchesLegacy); the ns/op gap is the cold-sweep
// win, gated in CI by TestEnumerationSpeedupRegression.

func benchEnumerate(b *testing.B, enumerate func(h *core.Shader) *core.VariantSet) {
	b.Helper()
	shaders := benchShaders(b)
	unique := 0
	for i := 0; i < b.N; i++ {
		unique = 0
		for _, s := range shaders {
			h, err := core.Compile(s.Source, s.Name, s.Lang)
			if err != nil {
				b.Fatal(err)
			}
			unique += enumerate(h).Unique()
		}
	}
	b.ReportMetric(float64(unique), "unique_variants")
}

// BenchmarkEnumerateCorpusLegacy is the PR 2 baseline: 256 ×
// (clone + flagged passes + codegen) per shader, with only the
// flag-independent prefix shared.
func BenchmarkEnumerateCorpusLegacy(b *testing.B) {
	benchEnumerate(b, oracle.Variants)
}

// BenchmarkEnumerateCorpusMemoized is the trie walk, inline (1 worker).
func BenchmarkEnumerateCorpusMemoized(b *testing.B) {
	benchEnumerate(b, func(h *core.Shader) *core.VariantSet { return h.VariantsSharedT(nil, 1, nil) })
}

// BenchmarkEnumerateCorpusMemoizedSharded shards the walk across 8
// workers, the way a Session-driven sweep runs it.
func BenchmarkEnumerateCorpusMemoizedSharded(b *testing.B) {
	benchEnumerate(b, func(h *core.Shader) *core.VariantSet { return h.VariantsSharedT(nil, 8, nil) })
}

// BenchmarkPrintersCorpus runs each per-text printer and emitter over
// every corpus shader's canonical driver lowering, once per iteration,
// so -benchmem reports each layer's bytes and objects per corpus pass.
func BenchmarkPrintersCorpus(b *testing.B) {
	progs := canonicalLowerings(b)
	for _, c := range []struct {
		name string
		f    func(*ir.Program) error
	}{
		{"FingerprintIR", func(p *ir.Program) error { core.FingerprintIR(p); return nil }},
		{"FingerprintCanonical", func(p *ir.Program) error { core.FingerprintCanonical(p); return nil }},
		{"GLSLDesktop", func(p *ir.Program) error { glslgen.Generate(p, glslgen.Desktop); return nil }},
		{"GLSLES", func(p *ir.Program) error { glslgen.Generate(p, glslgen.ES); return nil }},
		{"MSL", func(p *ir.Program) error { _, err := msl.Emit(p); return err }},
		{"SPIRV", func(p *ir.Program) error { _, err := spirvgen.Emit(p); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, p := range progs {
					if err := c.f(p); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkLexAllCorpus runs each frontend's LexAll over its language's
// corpus sources, and the MSL lexer over every corpus shader's emitted
// MSL (the text the NVIDIA re-ingest lexes), once per iteration, so
// -benchmem reports each lexer's bytes and objects per corpus pass.
func BenchmarkLexAllCorpus(b *testing.B) {
	texts := map[core.Lang][]string{}
	for _, s := range corpus.MustLoad() {
		texts[s.Lang] = append(texts[s.Lang], s.Source)
	}
	for _, p := range canonicalLowerings(b) {
		src, err := msl.Emit(p)
		if err != nil {
			b.Fatal(err)
		}
		texts[core.LangMSL] = append(texts[core.LangMSL], src)
	}
	for _, c := range []struct {
		lang core.Lang
		lex  func(string) error
	}{
		{core.LangGLSL, func(s string) error { _, err := glsl.LexAll(s); return err }},
		{core.LangWGSL, func(s string) error { _, err := wgsl.LexAll(s); return err }},
		{core.LangHLSL, func(s string) error { _, err := hlsl.LexAll(s); return err }},
		{core.LangMSL, func(s string) error { _, err := msl.LexAll(s); return err }},
	} {
		b.Run(c.lang.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, src := range texts[c.lang] {
					if err := c.lex(src); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// BenchmarkTranslateCorpus runs each translating frontend's Translate
// over modules parsed outside the timed loop: the HLSL and WGSL corpus
// sources, and every canonical lowering's emitted MSL (the text the
// NVIDIA re-ingest translates). -benchmem reports each translator's
// bytes and objects per corpus pass.
func BenchmarkTranslateCorpus(b *testing.B) {
	var hlslMods []*hlsl.Module
	var wgslMods []*wgsl.Module
	var mslMods []*msl.Module
	for _, s := range corpus.MustLoad() {
		switch s.Lang {
		case core.LangHLSL:
			m, err := hlsl.Parse(s.Source)
			if err != nil {
				b.Fatal(err)
			}
			hlslMods = append(hlslMods, m)
		case core.LangWGSL:
			m, err := wgsl.Parse(s.Source)
			if err != nil {
				b.Fatal(err)
			}
			wgslMods = append(wgslMods, m)
		}
	}
	for _, p := range canonicalLowerings(b) {
		src, err := msl.Emit(p)
		if err != nil {
			b.Fatal(err)
		}
		m, err := msl.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		mslMods = append(mslMods, m)
	}
	for _, c := range []struct {
		lang core.Lang
		n    int
		tr   func(i int) error
	}{
		{core.LangWGSL, len(wgslMods), func(i int) error { _, err := wgsl.Translate(wgslMods[i]); return err }},
		{core.LangHLSL, len(hlslMods), func(i int) error { _, err := hlsl.Translate(hlslMods[i]); return err }},
		{core.LangMSL, len(mslMods), func(i int) error { _, err := msl.Translate(mslMods[i]); return err }},
	} {
		b.Run(c.lang.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j := 0; j < c.n; j++ {
					if err := c.tr(j); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// --- component micro-benchmarks ---

func BenchmarkParseBlur(b *testing.B) {
	src := corpus.MotivatingExample().Source
	for i := 0; i < b.N; i++ {
		if _, err := glsl.Parse(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLowerBlur(b *testing.B) {
	sh := glsl.MustParse(corpus.MotivatingExample().Source)
	for i := 0; i < b.N; i++ {
		if _, err := lower.Lower(sh, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizeBlurAllFlags(b *testing.B) {
	src := corpus.MotivatingExample().Source
	for i := 0; i < b.N; i++ {
		h, err := core.Compile(src, "bench", core.LangAuto)
		if err != nil {
			b.Fatal(err)
		}
		h.Optimize(core.AllFlags)
	}
}

func BenchmarkVariantsBlur(b *testing.B) {
	src := corpus.MotivatingExample().Source
	for i := 0; i < b.N; i++ {
		h, err := core.Compile(src, "bench", core.LangAuto)
		if err != nil {
			b.Fatal(err)
		}
		h.Variants()
	}
}

func BenchmarkDriverCompile(b *testing.B) {
	src := corpus.MotivatingExample().Source
	for _, pl := range gpu.Platforms() {
		pl := pl
		b.Run(pl.Vendor, func(b *testing.B) {
			eff := src
			if pl.Mobile {
				var err error
				eff, err = ConvertToES(src, "bench")
				if err != nil {
					b.Fatal(err)
				}
			}
			for i := 0; i < b.N; i++ {
				if _, err := pl.CompileSource(eff); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkInterpretBlur(b *testing.B) {
	h, err := core.Compile(corpus.MotivatingExample().Source, "bench", core.LangAuto)
	if err != nil {
		b.Fatal(err)
	}
	prog := h.IR()
	env := harness.DefaultEnv(prog)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(prog, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMobileConversion(b *testing.B) {
	src := corpus.MotivatingExample().Source
	for i := 0; i < b.N; i++ {
		if _, err := ConvertToES(src, "bench"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMeasureProtocol(b *testing.B) {
	pl := gpu.NewIntel()
	src := corpus.MotivatingExample().Source
	cfg := harness.DefaultConfig()
	compiled, err := pl.CompileSource(src)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		harness.MeasureCompiled(pl, compiled, src, cfg)
	}
}
