package report

import (
	"strings"
	"testing"

	"shaderopt/internal/analysis"
	"shaderopt/internal/core"
	"shaderopt/internal/passes"
	"shaderopt/internal/search"
)

func TestTable1Rendering(t *testing.T) {
	rows := []search.MeanSpeedups{
		{Vendor: "Intel", BestStatic: 2.5, StaticSet: core.FlagCoalesce | core.FlagUnroll},
		{Vendor: "ARM", BestStatic: 4.0, StaticSet: core.FlagGVN},
	}
	out := Table1(rows)
	if !strings.Contains(out, "Intel") || !strings.Contains(out, "ARM") {
		t.Error("vendors missing")
	}
	if !strings.Contains(out, "+2.50%") {
		t.Error("mean missing")
	}
	// Intel row must mark Coalesce and Unroll.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Intel") {
			if strings.Count(line, "X") != 2 {
				t.Errorf("Intel row marks: %q", line)
			}
		}
	}
}

func TestFig5Fig6(t *testing.T) {
	rows := []search.MeanSpeedups{{Vendor: "AMD", Best: 4, Default: -0.5, BestStatic: 3}}
	out := Fig5(rows)
	if !strings.Contains(out, "AMD") || !strings.Contains(out, "+4.00%") || !strings.Contains(out, "-0.50%") {
		t.Errorf("fig5:\n%s", out)
	}
	out6 := Fig6([]string{"AMD"}, []float64{8.5})
	if !strings.Contains(out6, "+8.50%") {
		t.Errorf("fig6:\n%s", out6)
	}
}

func TestFig7(t *testing.T) {
	per := []search.PerShader{
		{Name: "a", Best: 10, Default: 5, BestStatic: 7},
		{Name: "b", Best: 0, Default: -1, BestStatic: 0},
	}
	out := Fig7("ARM", per, 1)
	if !strings.Contains(out, "a") || !strings.Contains(out, "1 more shaders") {
		t.Errorf("fig7:\n%s", out)
	}
	if !strings.Contains(out, "Summary") {
		t.Error("summary missing")
	}
}

func TestFig8(t *testing.T) {
	apps := []search.FlagApplicability{
		{Flag: core.FlagADCE, Total: 10, ChangesCode: 0, InOptimalSet: []int{3}},
		{Flag: core.FlagUnroll, Total: 10, ChangesCode: 4, InOptimalSet: []int{4}},
	}
	out := Fig8(apps, []string{"AMD"})
	if !strings.Contains(out, "adce") || !strings.Contains(out, "unroll") || !strings.Contains(out, "| 4 ") {
		t.Errorf("fig8:\n%s", out)
	}
}

func TestFig9(t *testing.T) {
	iso := map[core.Flags][]float64{}
	for _, f := range passes.FlagList() {
		iso[f] = []float64{-5, 0, 1, 2, 25}
	}
	out := Fig9("Qualcomm", iso)
	if !strings.Contains(out, "fp-reassociate") || !strings.Contains(out, "+25.00%") {
		t.Errorf("fig9:\n%s", out)
	}
}

func TestHistogramRendering(t *testing.T) {
	out := Histogram("title", []float64{-10, 0, 0, 5, 5, 5}, -15, 15, 6)
	if !strings.Contains(out, "title") || !strings.Contains(out, "###") {
		t.Errorf("histogram:\n%s", out)
	}
}

func TestFig4Renderers(t *testing.T) {
	locs := []analysis.LoC{{Name: "big", Lines: 300}, {Name: "small", Lines: 5}}
	out := Fig4a(locs)
	if !strings.Contains(out, "max 300 lines") {
		t.Errorf("fig4a:\n%s", out)
	}
	cyc := []analysis.StaticCycles{{Name: "x", Arith: 10, LoadStore: 5, Texture: 3}}
	out = Fig4b(cyc)
	if !strings.Contains(out, "A 10.0") {
		t.Errorf("fig4b:\n%s", out)
	}
	uni := []analysis.Uniqueness{{Name: "x", Unique: 48, MaxSets: 256}, {Name: "y", Unique: 2, MaxSets: 256}}
	out = Fig4c(uni)
	if !strings.Contains(out, "Max 48 variants") {
		t.Errorf("fig4c:\n%s", out)
	}
}

func TestFig3Rendering(t *testing.T) {
	out := Fig3(
		[]string{"Intel", "ARM"},
		[]float64{7, 45},
		"ARM",
		[]float64{-30, -5, 0, 0, 2, 10},
	)
	if !strings.Contains(out, "+45.00%") || !strings.Contains(out, "ARM") {
		t.Errorf("fig3:\n%s", out)
	}
}
