package shaderopt

// Observability invariants at the facade level:
//
//   - instrumentation is inert: a fully-traced sweep (registry + tracer
//     attached) produces scores byte-identical to an untraced one;
//   - the consolidated registry is the source of truth: the sweep's
//     PipelineStats and the metrics snapshot report the same numbers,
//     and the trace contains spans for every pipeline stage.
//
// Both run under -race in CI's quick matrix, so they double as a
// concurrency hammer on the registry through the real worker pool.

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// telemetrySweep compiles a small mixed-language corpus subset and sweeps
// it through a fresh session wired to the given registry (nil means an
// untraced session with its private registry).
func telemetrySweep(t *testing.T, reg *Telemetry) (*Session, *SweepResult) {
	t.Helper()
	shaders, err := Corpus()
	if err != nil {
		t.Fatal(err)
	}
	shaders = shaders[:6]
	var opts []Option
	if reg != nil {
		opts = append(opts, WithTelemetry(reg))
	}
	handles, err := CompileCorpus(shaders, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession(append(opts, WithProtocol(FastProtocol()), WithWorkers(4))...)
	sweep, err := sess.Sweep(handles, nil)
	if err != nil {
		t.Fatal(err)
	}
	return sess, sweep
}

func TestSweepTracedMatchesUntraced(t *testing.T) {
	_, plain := telemetrySweep(t, nil)

	reg := NewTelemetry()
	tracer := NewTracer()
	reg.SetTracer(tracer)
	_, traced := telemetrySweep(t, reg)

	if len(plain.Results) != len(traced.Results) {
		t.Fatalf("result count: %d vs %d", len(plain.Results), len(traced.Results))
	}
	for i, pr := range plain.Results {
		tr := traced.Results[i]
		for vendor, ns := range pr.OrigNS {
			if tr.OrigNS[vendor] != ns {
				t.Fatalf("%s orig on %s: traced %v != untraced %v", pr.Name(), vendor, tr.OrigNS[vendor], ns)
			}
		}
		for vendor, per := range pr.VariantNS {
			for hash, ns := range per {
				if tr.VariantNS[vendor][hash] != ns {
					t.Fatalf("%s variant %s on %s: traced %v != untraced %v",
						pr.Name(), hash, vendor, tr.VariantNS[vendor][hash], ns)
				}
			}
		}
	}

	// The trace must be valid JSON covering every pipeline stage.
	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	stages := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch {
		case strings.HasPrefix(ev.Name, "parse "):
			stages["parse"] = true
		case ev.Name == "enumerate":
			stages["enumerate"] = true
		case strings.HasPrefix(ev.Name, "compile "):
			stages["compile"] = true
		case strings.HasPrefix(ev.Name, "measure "):
			stages["measure"] = true
		case strings.HasPrefix(ev.Name, "sweep "):
			stages["sweep"] = true
		}
	}
	for _, want := range []string{"parse", "enumerate", "compile", "measure", "sweep"} {
		if !stages[want] {
			t.Errorf("trace has no %q span (events: %d)", want, len(doc.TraceEvents))
		}
	}
}

// TestMetricsMatchPipelineStats checks the sweep's aggregate stats
// against the session's metrics snapshot (one sweep on a fresh session:
// per-sweep totals are the session totals).
func TestMetricsMatchPipelineStats(t *testing.T) {
	sess, sweep := telemetrySweep(t, NewTelemetry())
	snap := sess.Metrics()

	measHits, measMisses := snap.Counters["session.measure.hits"], snap.Counters["session.measure.misses"]
	if sweep.Stats.Measured != measMisses || sweep.Stats.CacheHits != measHits {
		t.Errorf("PipelineStats measured/hits (%d, %d) != session.measure misses/hits (%d, %d)",
			sweep.Stats.Measured, sweep.Stats.CacheHits, measMisses, measHits)
	}
	if cHits := snap.Counters["cache.compile.hits"]; sweep.Stats.CompileHits != cHits {
		t.Errorf("PipelineStats.CompileHits %d != cache.compile.hits %d", sweep.Stats.CompileHits, cHits)
	}
	if sweep.Stats.Shaders != len(sweep.Results) {
		t.Errorf("PipelineStats.Shaders %d != %d results", sweep.Stats.Shaders, len(sweep.Results))
	}
	if sweep.Stats.Metrics == nil {
		t.Fatal("PipelineStats.Metrics is nil")
	}
	// Every frontend parse the corpus compile did is in the registry.
	if got := snap.Counters["frontend.parses"]; got < int64(sweep.Stats.Shaders) {
		t.Errorf("frontend.parses %d < %d shaders", got, sweep.Stats.Shaders)
	}
}
