package sweepd

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/search"
	"shaderopt/internal/telemetry"
)

// post sends req to a /sweep endpoint and returns the status and the
// response's last line: the results or error line of a stream, or the
// message of a refused request.
func post(t testing.TB, url string, req SweepRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, lastLine(raw)
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// resultsLine posts req and returns its results line, failing the test
// on anything else.
func resultsLine(t testing.TB, url string, req SweepRequest) []byte {
	t.Helper()
	status, line := post(t, url, req)
	var sl StreamLine
	if status != http.StatusOK || json.Unmarshal(line, &sl) != nil || sl.Results == nil {
		t.Fatalf("status %d, last line %s: want a results line", status, line)
	}
	return line
}

// parseSpans counts the frontend parse spans a tracer recorded.
func parseSpans(t *testing.T, tr *telemetry.Tracer) int {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Name, Cat string } `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range doc.TraceEvents {
		if ev.Cat == "frontend" && strings.HasPrefix(ev.Name, "parse ") {
			n++
		}
	}
	return n
}

// uniqueVariants returns a corpus shader's unique-variant count, the
// cost of its handle in the memo.
func uniqueVariants(t *testing.T, s *corpus.Shader) int {
	t.Helper()
	h, err := core.Compile(s.Source, s.Name, s.Lang)
	if err != nil {
		t.Fatal(err)
	}
	return h.Variants().Unique()
}

// TestSweepdReusesCompiledHandles pins the server's memo of compiled
// handles: a warm daemon compiles each distinct (name, lang, source) of a
// successful sweep once, answers repeats byte-identically, and admits
// nothing that failed to compile or to sweep. The repeat request is the
// whole corpus; -short runs swap in the daemon test corpus, since a cold
// whole-corpus sweep takes tens of seconds under -race.
func TestSweepdReusesCompiledHandles(t *testing.T) {
	all := corpus.MustLoad()
	if testing.Short() {
		all = loadShaders(t)
	}
	whole := SweepRequest{Shaders: toSources(all), Protocol: "fast"}
	fast := func(srcs ...ShaderSource) SweepRequest { return SweepRequest{Shaders: srcs, Protocol: "fast"} }

	t.Run("repeat request compiles nothing", func(t *testing.T) {
		server := New(Config{})
		ts := httptest.NewServer(server.Handler())
		defer ts.Close()
		first := resultsLine(t, ts.URL, whole)

		tr := telemetry.NewTracer()
		server.Telemetry().SetTracer(tr)
		parses := core.FrontendParses()
		second := resultsLine(t, ts.URL, whole)
		server.Telemetry().SetTracer(nil)
		if n := core.FrontendParses() - parses; n != 0 {
			t.Errorf("repeat request ran %d frontend parses, want 0", n)
		}
		if n := parseSpans(t, tr); n != 0 {
			t.Errorf("repeat request recorded %d parse spans, want 0", n)
		}
		if !bytes.Equal(first, second) {
			t.Error("repeat request's results line differs from the first")
		}
		fresh := httptest.NewServer(New(Config{}).Handler())
		defer fresh.Close()
		if !bytes.Equal(resultsLine(t, fresh.URL, whole), first) {
			t.Error("a fresh server's results line differs from the warm server's")
		}

		m := server.metrics()
		if got := m.Counters["cache.handles.hits"]; got != int64(len(all)) {
			t.Errorf("cache.handles.hits = %d, want %d", got, len(all))
		}
		if got := m.Counters["cache.handles.misses"]; got != int64(len(all)) {
			t.Errorf("cache.handles.misses = %d, want %d", got, len(all))
		}
		if got := m.Gauges["cache.handles.entries"]; got != int64(len(all)) {
			t.Errorf("cache.handles.entries = %d, want %d", got, len(all))
		}
		if got := m.Gauges["cache.handles.bound"]; got != search.CacheBound {
			t.Errorf("cache.handles.bound = %d, want %d", got, search.CacheBound)
		}
		table, err := (&Client{BaseURL: ts.URL}).Metrics()
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"cache.handles.hits", "cache.handles.entries", "cache.handles.cost"} {
			if !strings.Contains(table, name) {
				t.Errorf("/metricz missing %s", name)
			}
		}

		// The same source under a new name is a new handle: one compile,
		// and the results carry the new name.
		src := whole.Shaders[0]
		src.Name = "renamed/" + src.Name
		server.Telemetry().SetTracer(tr)
		before, parses := parseSpans(t, tr), core.FrontendParses()
		got, err := (&Client{BaseURL: ts.URL}).Sweep(fast(src), nil)
		server.Telemetry().SetTracer(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].Name != src.Name {
			t.Errorf("renamed request reports %q, want %q", got[0].Name, src.Name)
		}
		if n := core.FrontendParses() - parses; n != 1 {
			t.Errorf("renamed source ran %d frontend parses, want 1", n)
		}
		if n := parseSpans(t, tr) - before; n != 1 {
			t.Errorf("renamed source recorded %d parse spans, want 1", n)
		}
		parses = core.FrontendParses()
		if _, err := (&Client{BaseURL: ts.URL}).Sweep(fast(src), nil); err != nil {
			t.Fatal(err)
		}
		if n := core.FrontendParses() - parses; n != 0 {
			t.Errorf("repeated renamed source ran %d frontend parses, want 0", n)
		}
	})

	t.Run("failed compile is never admitted", func(t *testing.T) {
		server := New(Config{})
		ts := httptest.NewServer(server.Handler())
		defer ts.Close()
		bad := fast(ShaderSource{Name: "bad/neg", Lang: "glsl", Source: "void main() { float x = 1.0; -x = 2.0; }"})
		for i := 0; i < 2; i++ {
			if status, line := post(t, ts.URL, bad); status != http.StatusBadRequest {
				t.Errorf("request %d: status %d (%s), want 400", i, status, line)
			}
		}
		if n := server.handles.Len(); n != 0 {
			t.Errorf("memo holds %d handles after failed compiles, want 0", n)
		}
		if got := server.Telemetry().Counter("cache.handles.misses").Value(); got != 2 {
			t.Errorf("cache.handles.misses = %d, want 2", got)
		}
	})

	t.Run("failed or canceled sweep admits nothing", func(t *testing.T) {
		probe := fast(whole.Shaders[0])
		server := New(Config{Platforms: brokenPlatforms()})
		ts := httptest.NewServer(server.Handler())
		defer ts.Close()
		for i := 0; i < 2; i++ {
			var sl StreamLine
			if _, line := post(t, ts.URL, probe); json.Unmarshal(line, &sl) != nil || sl.Error == "" {
				t.Errorf("request %d: last line %s, want an error line", i, line)
			}
		}
		if n := server.handles.Len(); n != 0 {
			t.Errorf("memo holds %d handles after failed sweeps, want 0", n)
		}

		server = New(Config{})
		body, err := json.Marshal(probe)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		rec := httptest.NewRecorder()
		server.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sweep", bytes.NewReader(body)).WithContext(ctx))
		var sl StreamLine
		if line := lastLine(rec.Body.Bytes()); json.Unmarshal(line, &sl) != nil || !strings.Contains(sl.Error, "canceled") {
			t.Errorf("canceled request's last line %s, want a cancellation error", line)
		}
		if n := server.handles.Len(); n != 0 {
			t.Errorf("memo holds %d handles after a canceled sweep, want 0", n)
		}
	})

	t.Run("tiny budget evicts", func(t *testing.T) {
		a, b := all[0], all[1]
		ua, ub := uniqueVariants(t, a), uniqueVariants(t, b)
		if ua < 2 {
			t.Fatalf("%s has %d unique variants; the rejection check needs a budget of at least 1 below it", a.Name, ua)
		}
		server := newServer(Config{}, max(ua, ub))
		ts := httptest.NewServer(server.Handler())
		defer ts.Close()
		resultsLine(t, ts.URL, fastRequest(a))
		resultsLine(t, ts.URL, fastRequest(b))
		m := server.metrics()
		if got := m.Counters["cache.handles.evictions"]; got != 1 {
			t.Errorf("cache.handles.evictions = %d, want 1", got)
		}
		if got, want := m.Gauges["cache.handles.cost"], int64(ub); got != want {
			t.Errorf("cache.handles.cost = %d, want %d (only %s resident)", got, want, b.Name)
		}
		parses := core.FrontendParses()
		resultsLine(t, ts.URL, fastRequest(a))
		if n := core.FrontendParses() - parses; n != 1 {
			t.Errorf("evicted %s ran %d frontend parses, want 1", a.Name, n)
		}

		// A handle costing more than the whole budget is rejected.
		small := newServer(Config{}, ua-1)
		ts2 := httptest.NewServer(small.Handler())
		defer ts2.Close()
		resultsLine(t, ts2.URL, fastRequest(a))
		if n, rej := small.handles.Len(), small.Telemetry().Counter("cache.handles.rejected").Value(); n != 0 || rej != 1 {
			t.Errorf("over-budget handle: %d entries, %d rejected; want 0 and 1", n, rej)
		}
	})

	t.Run("concurrent identical requests", func(t *testing.T) {
		shaders := loadShaders(t)
		oracle, _ := localOracle(t, shaders)
		server := New(Config{})
		ts := httptest.NewServer(server.Handler())
		defer ts.Close()
		req := SweepRequest{Shaders: toSources(shaders), Protocol: "fast"}
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := (&Client{BaseURL: ts.URL}).Sweep(req, nil)
				if err != nil {
					t.Error(err)
					return
				}
				assertScoresMatchOracle(t, oracle, got)
			}()
		}
		wg.Wait()
		if n := server.handles.Len(); n != len(shaders) {
			t.Errorf("memo holds %d handles, want %d", n, len(shaders))
		}
		got, err := (&Client{BaseURL: ts.URL}).Sweep(req, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertScoresMatchOracle(t, oracle, got)
	})
}

// BenchmarkSweepdWarmRequest times one warm whole-corpus request through
// the HTTP handler: JSON in, handle memo lookups, cached enumerations and
// scores, JSON out. Set-up sends the same request once to warm the
// daemon.
func BenchmarkSweepdWarmRequest(b *testing.B) {
	req := SweepRequest{Shaders: toSources(corpus.MustLoad()), Protocol: "fast"}
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	resultsLine(b, ts.URL, req)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resultsLine(b, ts.URL, req)
	}
}
