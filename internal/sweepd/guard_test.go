package sweepd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"shaderopt/internal/corpus"
	"shaderopt/internal/gpu"
	"shaderopt/internal/search"
)

// brokenPlatforms returns a roster whose one platform produces NaN
// scores: every measured time is CyclesPerFragment * fragments *
// NSPerFragCycle + overhead, so a NaN conversion factor poisons every
// score the harness emits — the "corrupted cost model" case the
// boundary guard exists for.
func brokenPlatforms() []*gpu.Platform {
	p := gpu.NewIntel()
	p.Cost.NSPerFragCycle = math.NaN()
	return []*gpu.Platform{p}
}

// TestSweepdNonFiniteScoresEndStreamWithError pins the harness-boundary
// guard: a sweep whose scores come out NaN must end the ndjson stream
// with a structured {"error": ...} line — not die mid-encode leaving
// the client a truncated stream — and must bump the
// sweepd.nonfinite_scores counter.
func TestSweepdNonFiniteScoresEndStreamWithError(t *testing.T) {
	server := New(Config{Platforms: brokenPlatforms()})
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()

	probe := corpus.ByName(corpus.MustLoad(), "simple/luma")
	if probe == nil {
		t.Fatal("missing corpus shader simple/luma")
	}
	req := SweepRequest{
		Shaders:  []ShaderSource{{Name: probe.Name, Source: probe.Source, Lang: probe.Lang.String()}},
		Protocol: "fast",
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	// Raw POST first: the stream-shape assertion. Every line must be
	// valid JSON (the failure mode was enc.Encode aborting mid-line),
	// the last line must be the error, and no line may carry results.
	resp, err := http.Post(ts.URL+"/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s, want 200 (errors after streaming starts are in-band)", resp.Status)
	}
	var last StreamLine
	sc := bufio.NewScanner(resp.Body)
	lines := 0
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		lines++
		last = StreamLine{}
		if err := json.Unmarshal(line, &last); err != nil {
			t.Fatalf("line %d is not valid JSON (truncated stream?): %v\n%s", lines, err, line)
		}
		if last.Results != nil {
			t.Fatalf("stream carried a results line despite non-finite scores")
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	if lines == 0 {
		t.Fatal("empty stream")
	}
	if last.Error == "" {
		t.Fatalf("last stream line is not an error line: %+v", last)
	}
	if !strings.Contains(last.Error, "non-finite") {
		t.Errorf("error %q does not name the non-finite guard", last.Error)
	}

	// The client must surface the same error.
	client := &Client{BaseURL: ts.URL}
	if _, err := client.Sweep(req, nil); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Errorf("Client.Sweep error = %v, want non-finite score failure", err)
	}

	if n := server.Telemetry().Counter("sweepd.nonfinite_scores").Value(); n < 2 {
		t.Errorf("sweepd.nonfinite_scores = %d, want >= 2 (one per request)", n)
	}
}

func TestValidateScores(t *testing.T) {
	finite := []ShaderScores{{
		Name:     "a",
		Orig:     map[string]float64{"Intel": 1000},
		Variants: map[string]map[string]float64{"Intel": {"h1": 900}},
	}}
	if err := validateScores(finite); err != nil {
		t.Errorf("finite scores rejected: %v", err)
	}
	cases := []struct {
		name string
		bad  float64
	}{
		{"nan", math.NaN()},
		{"+inf", math.Inf(1)},
		{"-inf", math.Inf(-1)},
	}
	for _, tc := range cases {
		scores := []ShaderScores{{
			Name:     "a",
			Orig:     map[string]float64{"Intel": 1000},
			Variants: map[string]map[string]float64{"Intel": {"h1": tc.bad, "h2": tc.bad}},
		}}
		err := validateScores(scores)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "2 non-finite") {
			t.Errorf("%s: error %q does not count both offenders", tc.name, err)
		}
		if !strings.Contains(err.Error(), "variant h1 on Intel") {
			t.Errorf("%s: error %q does not name the first offender deterministically", tc.name, err)
		}
	}
}

// TestValidateScoresFiniteAllocatesNothing pins the guard's cost on the
// response it sees every time: a whole-corpus-shaped result (115
// shaders, five vendors, a few variants each) with every score finite
// is checked without allocating.
func TestValidateScoresFiniteAllocatesNothing(t *testing.T) {
	vendors := []string{"Intel", "AMD", "NVIDIA", "ARM", "Qualcomm"}
	results := make([]ShaderScores, 115)
	for i := range results {
		r := ShaderScores{
			Name:     fmt.Sprintf("family/v%d", i),
			Orig:     map[string]float64{},
			Variants: map[string]map[string]float64{},
		}
		for j, v := range vendors {
			r.Orig[v] = float64(1000 + j)
			m := map[string]float64{}
			for k := 0; k < 6; k++ {
				m[fmt.Sprintf("h%d", k)] = float64(900 + k)
			}
			r.Variants[v] = m
		}
		results[i] = r
	}
	var err error
	if allocs := testing.AllocsPerRun(20, func() { err = validateScores(results) }); allocs != 0 {
		t.Errorf("validateScores allocated %.0f objects per call on finite scores, want 0", allocs)
	}
	if err != nil {
		t.Errorf("finite scores rejected: %v", err)
	}
}

// countingTransport wraps a transport with a dialer that counts dials
// and tracks open connections, so tests can pin connection reuse (the
// observable benefit of draining response bodies) and the absence of
// leaked connections.
type countingTransport struct {
	*http.Transport
	dials int64
	open  int64
}

func newCountingTransport() *countingTransport {
	ct := &countingTransport{}
	ct.Transport = &http.Transport{
		DialContext: func(_ context.Context, network, addr string) (net.Conn, error) {
			c, err := net.Dial(network, addr)
			if err != nil {
				return nil, err
			}
			atomic.AddInt64(&ct.dials, 1)
			atomic.AddInt64(&ct.open, 1)
			return &countedConn{Conn: c, open: &ct.open}, nil
		},
	}
	return ct
}

type countedConn struct {
	net.Conn
	open   *int64
	closed int64
}

func (c *countedConn) Close() error {
	if atomic.CompareAndSwapInt64(&c.closed, 0, 1) {
		atomic.AddInt64(c.open, -1)
	}
	return c.Conn.Close()
}

// TestSweepdClientMalformedStreamNoLeak pins the client's response-body
// hygiene on the error path: a server that emits a valid event line and
// then garbage mid-stream must produce a "sweep stream" decode error,
// and the connection must come back to the keep-alive pool — proven by
// the next request over the same transport reusing it (one dial total)
// and by every connection closing once the pool is flushed. Before
// drainAndClose, the unread garbage made the transport tear the
// connection down (or, without a close, leak it).
func TestSweepdClientMalformedStreamNoLeak(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/sweep" {
			fmt.Fprintln(w, "ok")
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintln(w, `{"event":{}}`)
		fmt.Fprintln(w, `this is not json`)
	}))
	defer ts.Close()

	ct := newCountingTransport()
	defer ct.CloseIdleConnections()
	client := &Client{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: ct.Transport}}

	events := 0
	_, err := client.Sweep(SweepRequest{Shaders: []ShaderSource{{Name: "x", Source: "s"}}},
		func(search.SweepEvent) { events++ })
	if err == nil || !strings.Contains(err.Error(), "sweep stream") {
		t.Fatalf("Sweep error = %v, want sweep stream decode failure", err)
	}
	if events != 1 {
		t.Errorf("delivered %d events before the malformed line, want 1", events)
	}

	// The failed request's connection must be reusable: Health over the
	// same transport must not dial again.
	if err := client.Health(); err != nil {
		t.Fatal(err)
	}
	if n := atomic.LoadInt64(&ct.dials); n != 1 {
		t.Errorf("dials = %d, want 1 (connection not reused after stream error)", n)
	}

	// And nothing may be left open once the idle pool is flushed.
	ct.CloseIdleConnections()
	if n := atomic.LoadInt64(&ct.open); n != 0 {
		t.Errorf("%d connection(s) still open after flushing the idle pool: leaked", n)
	}
}

// TestSweepdClientReusesConnections pins keep-alive reuse on the happy
// paths: Health (whose body was never read before the drain fix) and a
// canned Sweep (whose stream has bytes after the results line) must
// both reuse one connection across repeated calls.
func TestSweepdClientReusesConnections(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/sweep":
			w.Header().Set("Content-Type", "application/x-ndjson")
			fmt.Fprintln(w, `{"event":{}}`)
			fmt.Fprintln(w, `{"results":[]}`)
			// Trailing bytes after the results line: the client returns
			// as soon as it decodes results, so these sit unread in the
			// buffer — exactly what drainAndClose exists to consume.
			fmt.Fprintln(w, `{"event":{}}`)
		default:
			fmt.Fprintln(w, "ok")
		}
	}))
	defer ts.Close()

	ct := newCountingTransport()
	defer ct.CloseIdleConnections()
	client := &Client{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: ct.Transport}}

	for i := 0; i < 3; i++ {
		if err := client.Health(); err != nil {
			t.Fatal(err)
		}
		if _, err := client.Sweep(SweepRequest{Shaders: []ShaderSource{{Name: "x", Source: "s"}}}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := atomic.LoadInt64(&ct.dials); n != 1 {
		t.Errorf("dials = %d across 6 requests, want 1 (bodies not drained before close)", n)
	}
}
