package shaderopt

// Acceptance gates for the comparative study layer: the GLSL↔HLSL twin
// cells of the language transfer matrix must be exact (100% retention by
// construction — the twin families share pinned instance-for-instance
// flag→variant partitions), and the rendered matrices must be
// byte-identical whatever worker count the sweep ran with.

import (
	"testing"

	"shaderopt/internal/analysis"
	"shaderopt/internal/corpus"
	"shaderopt/internal/report"
	"shaderopt/internal/search"
)

// twinStudy loads the two twin families (all twelve shaders, plus one
// WGSL outsider so the matrix has a best-effort group too) and sweeps
// them with the given worker count.
func twinStudy(t *testing.T, workers int) *search.Sweep {
	t.Helper()
	all, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	var shaders []*corpus.Shader
	for _, s := range all {
		if s.Family == "tonemap" || s.Family == "hlsl" || s.Name == "wgsl/ripple" {
			shaders = append(shaders, s)
		}
	}
	return sweepHandles(t, compileHandles(t, shaders), workers)
}

// TestTransferTwinCellsExact pins the acceptance criterion: both
// GLSL↔HLSL cells of the language matrix are computed on the pinned
// twin pairing and retain exactly 100% of the learned win.
func TestTransferTwinCellsExact(t *testing.T) {
	m := analysis.LangTransferMatrix(twinStudy(t, 0))
	idx := map[string]int{}
	for i, g := range m.Groups {
		idx[g] = i
	}
	gi, ok := idx["glsl"]
	if !ok {
		t.Fatal("no glsl group in the twin study")
	}
	hi, ok := idx["hlsl"]
	if !ok {
		t.Fatal("no hlsl group in the twin study")
	}
	for _, c := range []analysis.TransferCell{m.Cells[gi][hi], m.Cells[hi][gi]} {
		if !c.Exact {
			t.Errorf("%s->%s: twin cell not computed on the exact pairing", c.From, c.To)
		}
		if c.Retention != 1.0 {
			t.Errorf("%s->%s: retention = %v, want exactly 1.0 (self win %v, transfer win %v)",
				c.From, c.To, c.Retention, c.SelfWin, c.TransferWin)
		}
	}
	// The diagonal is the self-transfer: retention 1 by definition, and
	// the learned win is never negative (the all-off set is a candidate).
	for i := range m.Groups {
		c := m.Cells[i][i]
		if c.Retention != 1.0 || c.SelfWin < 0 {
			t.Errorf("%s->%s: self cell retention %v self win %v", c.From, c.To, c.Retention, c.SelfWin)
		}
	}
}

// TestTransferMatrixWorkerInvariance pins the other acceptance
// criterion: the rendered matrices (both axes, headline included) are
// byte-identical across -workers settings.
func TestTransferMatrixWorkerInvariance(t *testing.T) {
	render := func(s *search.Sweep) string {
		lm := analysis.LangTransferMatrix(s)
		bm := analysis.BackendTransferMatrix(s)
		return report.TransferMatrix(lm) + report.TransferMatrix(bm) +
			report.TransferHeadline(lm) + "\n" + report.TransferHeadline(bm) + "\n"
	}
	serial := render(twinStudy(t, 1))
	parallel := render(twinStudy(t, 4))
	if serial != parallel {
		t.Errorf("transfer report differs across worker counts.\n--- workers=1 ---\n%s\n--- workers=4 ---\n%s", serial, parallel)
	}
}
