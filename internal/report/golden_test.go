package report_test

// Golden-file tests for the study reports: every table and figure
// renderer is run over a small deterministic sweep (simulated platforms,
// seeded noise — identical output on every machine) and compared against
// testdata/*.golden byte-for-byte, so formatting changes show up as
// reviewable diffs.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/report -run TestGolden -update
import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"shaderopt/internal/analysis"
	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/report"
	"shaderopt/internal/search"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

// goldenNames is the fixed study subset behind every golden: small enough
// to sweep in test time, diverse enough (loop, übershader, trivial, WGSL)
// that each report exercises its interesting rows.
var goldenNames = []string{"blur/v9", "projtex/compose", "ui/flat", "simple/luma", "wgsl/ripple"}

func goldenShaders(t *testing.T) []*corpus.Shader {
	t.Helper()
	all, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	var out []*corpus.Shader
	for _, n := range goldenNames {
		s := corpus.ByName(all, n)
		if s == nil {
			t.Fatalf("missing corpus shader %s", n)
		}
		out = append(out, s)
	}
	return out
}

var (
	goldenOnce  sync.Once
	goldenSweep *search.Sweep
	goldenErr   error
)

// sweepNamed compiles the named corpus shaders and sweeps them through
// a fresh session.
func sweepNamed(names []string) (*search.Sweep, error) {
	all, err := corpus.Load()
	if err != nil {
		return nil, err
	}
	handles := make([]*core.Shader, len(names))
	for i, n := range names {
		s := corpus.ByName(all, n)
		if s == nil {
			return nil, fmt.Errorf("missing corpus shader %s", n)
		}
		if handles[i], err = core.Compile(s.Source, s.Name, s.Lang); err != nil {
			return nil, fmt.Errorf("%s: %w", n, err)
		}
	}
	return search.NewSession(gpu.Platforms(), search.Options{Cfg: harness.FastConfig()}).Sweep(handles, nil)
}

func sweepForGolden(t *testing.T) *search.Sweep {
	t.Helper()
	goldenOnce.Do(func() { goldenSweep, goldenErr = sweepNamed(goldenNames) })
	if goldenErr != nil {
		t.Fatal(goldenErr)
	}
	return goldenSweep
}

// transferNames is the fixture behind the comparative-study goldens: the
// full GLSL tonemap family with its pinned HLSL twin family (so the
// exact twin cells appear in the language matrix) plus one WGSL shader
// for a best-effort third group.
var transferNames = []string{
	"tonemap/reinhard", "tonemap/reinhard_ext", "tonemap/reinhard_gamma",
	"tonemap/filmic", "tonemap/filmic_gamma", "tonemap/filmic_full",
	"hlsl/reinhard", "hlsl/reinhard_ext", "hlsl/reinhard_gamma",
	"hlsl/filmic", "hlsl/filmic_gamma", "hlsl/filmic_full",
	"wgsl/ripple",
}

var (
	transferOnce   sync.Once
	transferResult *search.Sweep
	transferErr    error
)

func sweepForTransfer(t *testing.T) *search.Sweep {
	t.Helper()
	transferOnce.Do(func() { transferResult, transferErr = sweepNamed(transferNames) })
	if transferErr != nil {
		t.Fatal(transferErr)
	}
	return transferResult
}

// rosterVendors returns the sweep's platform vendors in roster order: the
// keys every analysis reads scores by and the names every figure prints.
func rosterVendors(sweep *search.Sweep) []string {
	vendors := make([]string, len(sweep.Platforms))
	for i, pl := range sweep.Platforms {
		vendors[i] = pl.Vendor
	}
	return vendors
}

// checkGolden compares got against testdata/<name>.golden, rewriting the
// file under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s differs from golden; rerun with -update after reviewing.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenTable1(t *testing.T) {
	sweep := sweepForGolden(t)
	var rows []search.MeanSpeedups
	for _, pl := range sweep.Platforms {
		rows = append(rows, sweep.MeanSpeedups(pl.Vendor))
	}
	checkGolden(t, "table1", report.Table1(rows))
}

func TestGoldenFig5(t *testing.T) {
	sweep := sweepForGolden(t)
	var rows []search.MeanSpeedups
	for _, pl := range sweep.Platforms {
		rows = append(rows, sweep.MeanSpeedups(pl.Vendor))
	}
	checkGolden(t, "fig5", report.Fig5(rows))
}

func TestGoldenFig6(t *testing.T) {
	sweep := sweepForGolden(t)
	vendors := rosterVendors(sweep)
	means := make([]float64, len(vendors))
	for i, v := range vendors {
		means[i] = sweep.Top30Mean(v)
	}
	checkGolden(t, "fig6", report.Fig6(vendors, means))
}

func TestGoldenFig7(t *testing.T) {
	sweep := sweepForGolden(t)
	checkGolden(t, "fig7_arm", report.Fig7("ARM", sweep.PerShaderSpeedups("ARM"), 15))
}

func TestGoldenFig8(t *testing.T) {
	sweep := sweepForGolden(t)
	checkGolden(t, "fig8", report.Fig8(sweep.FlagApplicabilities(), rosterVendors(sweep)))
}

func TestGoldenFig9(t *testing.T) {
	sweep := sweepForGolden(t)
	checkGolden(t, "fig9_arm", report.Fig9("ARM", sweep.FlagIsolation("ARM")))
}

func TestGoldenFig3(t *testing.T) {
	sweep := sweepForGolden(t)
	me := corpus.MotivatingExample()
	r := sweep.ResultFor(me.Name)
	if r == nil {
		t.Fatalf("motivating example %s not in the golden subset", me.Name)
	}
	vendors := rosterVendors(sweep)
	gains := make([]float64, len(vendors))
	for i, v := range vendors {
		gains[i] = r.BestSpeedup(v)
	}
	dist := sweep.SpeedupDistribution("ARM", core.AllFlags)
	checkGolden(t, "fig3", report.Fig3(vendors, gains, "ARM", dist))
}

func TestGoldenFig4(t *testing.T) {
	shaders := goldenShaders(t)
	checkGolden(t, "fig4a", report.Fig4a(analysis.LinesOfCode(shaders)))
	cyc, err := analysis.ARMStaticCycles(shaders)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig4b", report.Fig4b(cyc))
	uni, err := analysis.UniqueVariants(shaders)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig4c", report.Fig4c(uni))
}

func TestGoldenHistogram(t *testing.T) {
	sweep := sweepForGolden(t)
	dist := sweep.SpeedupDistribution("ARM", core.DefaultFlags)
	checkGolden(t, "histogram", report.Histogram("Default-flags speed-up distribution (ARM)", dist, -35, 15, 20))
}

func TestGoldenTransferLang(t *testing.T) {
	sweep := sweepForTransfer(t)
	m := analysis.LangTransferMatrix(sweep)
	got := report.TransferMatrix(m) + "\n" + report.TransferHeadline(m) + "\n"
	checkGolden(t, "transfer_lang", got)
}

func TestGoldenTransferBackend(t *testing.T) {
	sweep := sweepForTransfer(t)
	m := analysis.BackendTransferMatrix(sweep)
	got := report.TransferMatrix(m) + "\n" + report.TransferHeadline(m) + "\n"
	checkGolden(t, "transfer_backend", got)
}

func TestGoldenTable1Grouped(t *testing.T) {
	sweep := sweepForTransfer(t)
	checkGolden(t, "table1_lang", report.Table1Grouped("language", analysis.LangGroupMeans(sweep)))
	checkGolden(t, "table1_backend", report.Table1Grouped("backend", analysis.BackendGroupMeans(sweep)))
}

func TestGoldenFig5Grouped(t *testing.T) {
	sweep := sweepForTransfer(t)
	checkGolden(t, "fig5_lang", report.Fig5Grouped("language", analysis.LangGroupMeans(sweep)))
	checkGolden(t, "fig5_backend", report.Fig5Grouped("backend", analysis.BackendGroupMeans(sweep)))
}

// TestGoldenFilesHaveNoStrays keeps testdata in lockstep with the tests:
// every .golden file must belong to a renderer above.
func TestGoldenFilesHaveNoStrays(t *testing.T) {
	known := map[string]bool{
		"table1": true, "fig3": true, "fig4a": true, "fig4b": true, "fig4c": true,
		"fig5": true, "fig6": true, "fig7_arm": true, "fig8": true, "fig9_arm": true,
		"histogram":     true,
		"transfer_lang": true, "transfer_backend": true,
		"table1_lang": true, "table1_backend": true,
		"fig5_lang": true, "fig5_backend": true,
	}
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) != ".golden" {
			continue
		}
		if !known[name[:len(name)-len(".golden")]] {
			t.Errorf("stray golden file %s", name)
		}
	}
}
