package main

// Golden-file test for the sweep progress output: the per-shader event
// lines and the end-of-sweep cache summary are rendered from fixed
// events/stats (timings included — the renderer is pure in its inputs,
// so the bytes are deterministic on every machine) and compared against
// testdata/progress.golden, following the internal/report convention.
//
// Regenerate after an intentional format change with:
//
//	go test ./cmd/sweep -run TestGolden -update

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"shaderopt"
	"shaderopt/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files with current output")

func TestGoldenProgress(t *testing.T) {
	events := []shaderopt.SweepEvent{
		{
			Shader: "blur/v9", Lang: "glsl", Done: 1, Total: 12, UniqueVariants: 11,
			Measured: 55, CacheHits: 0, Workers: 4,
			EnumMS: 12.3, MeasureMS: 41.7, CompileHits: 3,
		},
		{
			Shader: "wgsl/ripple", Lang: "wgsl", Done: 2, Total: 12, UniqueVariants: 10,
			Measured: 50, CacheHits: 5, Workers: 4,
			EnumCached: true, MeasureMS: 30.2, CompileHits: 0,
		},
		{
			Shader: "pbr/l4_spec_full", Lang: "glsl", Done: 12, Total: 12, UniqueVariants: 9,
			Measured: 44, CacheHits: 6, Workers: 4,
			EnumMS: 107.9, MeasureMS: 112.4, CompileHits: 12,
		},
	}
	stats := sweepStats{
		measHits: 11, measMisses: 149,
		compileHits: 15, compileMisses: 268,
		enumEntries: 12, enumVariants: 84, enumBound: 16384,
		scoreEntries: 149, scoreBound: 16384, scoreEvicted: 0,
	}
	agg := shaderopt.PipelineStats{
		Shaders: 12, UniqueVariants: 84,
		Measured: 149, CacheHits: 11, CompileHits: 15,
		EnumMS: 245.6, MeasureMS: 1234.5,
		Metrics: &telemetry.Snapshot{
			Histograms: map[string]telemetry.HistogramSnapshot{
				"gpu.compile": {Sum: 456700 * time.Microsecond},
			},
		},
	}
	var sb strings.Builder
	for _, ev := range events {
		sb.WriteString(renderEvent(ev))
		sb.WriteString("\n")
	}
	sb.WriteString(renderSummary(stats))
	sb.WriteString("\n")
	sb.WriteString(renderAggregate(agg))
	sb.WriteString("\n")

	checkGolden(t, "progress", sb.String())
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
		t.Errorf("%s output differs from golden; rerun with -update after reviewing.\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}
