package analysis

// Differential test of the single-pass argmax: every best static set,
// Fig. 5 aggregate and transfer-matrix cell must carry the same bits as
// the brute-force scan it replaced — 256 combinations × results × vendors,
// each score read through ShaderResult.NSFor — which lives on here as
// the reference.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/passes"
	"shaderopt/internal/search"
)

// refBestStatic is the per-combination scan behind Table I.
func refBestStatic(results []*search.ShaderResult, vendor string) (core.Flags, float64) {
	bestFlags, bestMean := core.NoFlags, -1e18
	for _, flags := range passes.AllCombinations() {
		sum := 0.0
		for _, r := range results {
			sum += r.SpeedupFor(vendor, flags)
		}
		if mean := sum / float64(len(results)); mean > bestMean {
			bestFlags, bestMean = flags, mean
		}
	}
	return bestFlags, bestMean
}

func refMeanSpeedups(results []*search.ShaderResult, vendor string) search.MeanSpeedups {
	set, mean := refBestStatic(results, vendor)
	out := search.MeanSpeedups{Vendor: vendor, BestStatic: mean, StaticSet: set}
	for _, r := range results {
		out.Best += r.BestSpeedup(vendor)
		out.Default += r.SpeedupFor(vendor, core.DefaultFlags)
	}
	n := float64(len(results))
	out.Best /= n
	out.Default /= n
	return out
}

// refWin is one combination's mean win against the all-off variant over
// a group's result × vendor grid.
func refWin(g group, flags core.Flags) float64 {
	if len(g.results) == 0 || len(g.vendors) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range g.results {
		for _, v := range g.vendors {
			sum += harness.Speedup(r.NSFor(v, core.NoFlags), r.NSFor(v, flags))
		}
	}
	return sum / float64(len(g.results)*len(g.vendors))
}

func refBestWin(g group) (core.Flags, float64) {
	bestFlags, bestWin := core.NoFlags, math.Inf(-1)
	for _, flags := range passes.AllCombinations() {
		if w := refWin(g, flags); w > bestWin {
			bestFlags, bestWin = flags, w
		}
	}
	return bestFlags, bestWin
}

// refMatrix relearns every cell's set from scratch, twin cells on their
// instance-paired subsets.
func refMatrix(groups []group) [][]TransferCell {
	var cells [][]TransferCell
	for _, from := range groups {
		var row []TransferCell
		for _, to := range groups {
			f, t, exact := from, to, false
			if ft, tt, ok := twinSlices(from, to); ok {
				f = group{name: from.name, results: ft, vendors: from.vendors}
				t = group{name: to.name, results: tt, vendors: to.vendors}
				exact = true
			}
			flags, self := refBestWin(f)
			win := refWin(t, flags)
			row = append(row, TransferCell{From: f.name, To: t.name, Flags: flags,
				SelfWin: self, TransferWin: win, Retention: retention(self, win), Exact: exact})
		}
		cells = append(cells, row)
	}
	return cells
}

type synthShader struct {
	name string
	lang core.Lang
}

// syntheticSweep builds a sweep over the real platform roster from a
// seeded generator. Every shader's all-off variant is shared by the 128
// combinations without the top flag; the rest split over up to maxExtra
// more variants, so a shader has 1 to maxExtra+1 of them. Times come from
// five values, so combinations tie exactly, and one score in twenty is
// missing, which reads as a zero time.
func syntheticSweep(seed int64, shaders []synthShader, maxExtra int) *search.Sweep {
	rng := rand.New(rand.NewSource(seed))
	platforms := gpu.Platforms()
	times := []float64{80, 90, 100, 100, 125}
	s := &search.Sweep{Platforms: platforms}
	for _, sh := range shaders {
		extra := rng.Intn(maxExtra + 1)
		vs := &core.VariantSet{Name: sh.name, ByFlags: map[core.Flags]*core.Variant{}}
		byLabel := map[int]*core.Variant{}
		for _, f := range passes.AllCombinations() {
			label := 0
			if f&0x80 != 0 && extra > 0 {
				label = 1 + rng.Intn(extra)
			}
			v, ok := byLabel[label]
			if !ok {
				v = &core.Variant{Hash: fmt.Sprintf("%s#%d", sh.name, label)}
				byLabel[label] = v
				vs.Variants = append(vs.Variants, v)
			}
			v.FlagSets = append(v.FlagSets, f)
			vs.ByFlags[f] = v
		}
		r := &search.ShaderResult{
			Handle:    &core.Shader{Name: sh.name, Lang: sh.lang},
			Variants:  vs,
			OrigNS:    map[string]float64{},
			VariantNS: map[string]map[string]float64{},
		}
		for _, p := range platforms {
			r.OrigNS[p.Vendor] = times[rng.Intn(len(times))]
			r.VariantNS[p.Vendor] = map[string]float64{}
			for _, v := range vs.Variants {
				if rng.Intn(20) != 0 {
					r.VariantNS[p.Vendor][v.Hash] = times[rng.Intn(len(times))]
				}
			}
		}
		s.Results = append(s.Results, r)
	}
	return s
}

// fixtureShaders mixes the pinned GLSL↔HLSL twins with unpaired shaders
// and a one-shader MSL group.
func fixtureShaders() []synthShader {
	return []synthShader{
		{"tonemap/aces", core.LangGLSL}, {"blur/v9", core.LangGLSL}, {"tonemap/reinhard", core.LangGLSL},
		{"wgsl/ripple", core.LangWGSL}, {"hlsl/aces", core.LangHLSL}, {"tonemap/filmic", core.LangGLSL},
		{"hlsl/reinhard", core.LangHLSL}, {"wgsl/bloom", core.LangWGSL}, {"msl/only", core.LangMSL},
		{"hlsl/extra", core.LangHLSL}, {"ui/flat", core.LangGLSL},
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func checkCells(t *testing.T, axis string, got *TransferMatrix, want [][]TransferCell) {
	t.Helper()
	if len(got.Cells) != len(want) {
		t.Fatalf("%s: %d rows, want %d", axis, len(got.Cells), len(want))
	}
	for i, row := range want {
		for j, w := range row {
			g := got.Cells[i][j]
			if g.From != w.From || g.To != w.To || g.Flags != w.Flags || g.Exact != w.Exact ||
				!sameBits(g.SelfWin, w.SelfWin) || !sameBits(g.TransferWin, w.TransferWin) ||
				!sameBits(g.Retention, w.Retention) {
				t.Errorf("%s cell %s->%s: got %+v, want %+v", axis, w.From, w.To, g, w)
			}
		}
	}
}

func checkMeans(t *testing.T, label string, got, want search.MeanSpeedups) {
	t.Helper()
	if got.Vendor != want.Vendor || got.StaticSet != want.StaticSet || !sameBits(got.BestStatic, want.BestStatic) ||
		!sameBits(got.Best, want.Best) || !sameBits(got.Default, want.Default) {
		t.Errorf("%s: got %+v, want %+v", label, got, want)
	}
}

func TestSinglePassMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		s := syntheticSweep(seed, fixtureShaders(), 6)
		for _, p := range s.Platforms {
			f, m := search.BestStaticFlagsOver(s.Results, p.Vendor)
			wf, wm := refBestStatic(s.Results, p.Vendor)
			if f != wf || !sameBits(m, wm) {
				t.Errorf("seed %d %s: best static %v %v, want %v %v", seed, p.Vendor, f, m, wf, wm)
			}
			checkMeans(t, fmt.Sprintf("seed %d %s", seed, p.Vendor), s.MeanSpeedups(p.Vendor), refMeanSpeedups(s.Results, p.Vendor))
		}
		for _, split := range []struct {
			groups []group
			means  []GroupMeans
		}{{langGroups(s), LangGroupMeans(s)}, {ingestGroups(s), BackendGroupMeans(s)}} {
			for i, g := range split.groups {
				for j, v := range g.vendors {
					checkMeans(t, fmt.Sprintf("seed %d group %s %s", seed, g.name, v), split.means[i].Rows[j], refMeanSpeedups(g.results, v))
				}
			}
		}
		checkCells(t, "language", LangTransferMatrix(s), refMatrix(langGroups(s)))
		checkCells(t, "backend", BackendTransferMatrix(s), refMatrix(ingestGroups(s)))
	}
}

// TestSinglePassEdgeGroups covers the groups the corpus never forms: no
// results, no vendors, one shader, one vendor, and one shader whose every
// combination yields the same variant.
func TestSinglePassEdgeGroups(t *testing.T) {
	s := syntheticSweep(7, fixtureShaders(), 0)
	one := s.Results[:1]
	cases := []group{
		{name: "empty", vendors: []string{"ARM", "Intel"}},
		{name: "no vendors", results: s.Results},
		{name: "one shader", results: one, vendors: []string{"ARM", "Intel"}},
		{name: "one vendor", results: s.Results, vendors: []string{"NVIDIA"}},
	}
	for _, g := range cases {
		f, w := bestWinOver(g)
		wf, ww := refBestWin(g)
		if f != wf || !sameBits(w, ww) {
			t.Errorf("%s: best win %v %v, want %v %v", g.name, f, w, wf, ww)
		}
	}
	for _, results := range [][]*search.ShaderResult{nil, one} {
		f, m := search.BestStaticFlagsOver(results, "ARM")
		wf, wm := refBestStatic(results, "ARM")
		if f != wf || !sameBits(m, wm) {
			t.Errorf("%d results: best static %v %v, want %v %v", len(results), f, m, wf, wm)
		}
		checkMeans(t, fmt.Sprintf("%d results", len(results)), search.MeanSpeedupsOver(results, "ARM"), refMeanSpeedups(results, "ARM"))
	}
}

func benchSweep() *search.Sweep {
	langs := []core.Lang{core.LangGLSL, core.LangGLSL, core.LangWGSL, core.LangHLSL}
	shaders := make([]synthShader, 115)
	for i := range shaders {
		shaders[i] = synthShader{fmt.Sprintf("family%d/s%d", i%29, i), langs[i%len(langs)]}
	}
	return syntheticSweep(1, shaders, 8)
}

var (
	sinkMatrix *TransferMatrix
	sinkFlags  core.Flags
)

func BenchmarkTransferMatrices(b *testing.B) {
	s := benchSweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMatrix = LangTransferMatrix(s)
		sinkMatrix = BackendTransferMatrix(s)
	}
}

func BenchmarkBestStaticFlags(b *testing.B) {
	s := benchSweep()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range s.Platforms {
			sinkFlags, _ = s.BestStaticFlags(p.Vendor)
		}
	}
}
