package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"shaderopt"
)

// TestUntracedPhaseAllocatesNothing: with no tracer attached, the
// analysis and report spans cost no allocation.
func TestUntracedPhaseAllocatesNothing(t *testing.T) {
	reg := shaderopt.NewTelemetry()
	f := func() {}
	if n := testing.AllocsPerRun(100, func() {
		phase(reg, "analysis", f)
		phase(reg, "report", f)
	}); n != 0 {
		t.Errorf("untraced phases allocate %v times per run, want 0", n)
	}
}

// TestTraceShowsAnalysisAndReport runs a small study with -trace and
// wants one analysis and one report span in the written Chrome trace.
func TestTraceShowsAnalysisAndReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	err := run(cliConfig{exp: "table1", reports: "transfer", expSet: true, lang: "wgsl", fast: true, workers: 1, traceOut: path}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, ev := range trace.TraceEvents {
		if ev.Name == ev.Cat {
			seen[ev.Name]++
		}
	}
	for _, layer := range []string{"analysis", "report"} {
		if seen[layer] != 1 {
			t.Errorf("trace has %d %q spans, want 1", seen[layer], layer)
		}
	}
}
