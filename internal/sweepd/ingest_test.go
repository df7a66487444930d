package sweepd

import (
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"shaderopt/internal/corpus"
	"shaderopt/internal/gpu"
	"shaderopt/internal/store"
)

func fastRequest(shaders ...*corpus.Shader) SweepRequest {
	return SweepRequest{Shaders: toSources(shaders), Protocol: "fast"}
}

// TestSweepdIngestFailureEndsStreamWithError injects a driver whose
// ingestion round trip always fails (an unknown format). A sweep that
// needs a compile on it must end with a structured error line naming the
// ingest, and the daemon must keep serving: the next request, answered
// from a store a healthy daemon populated, succeeds with the healthy
// daemon's scores.
func TestSweepdIngestFailureEndsStreamWithError(t *testing.T) {
	all := corpus.MustLoad()
	warm, cold := corpus.ByName(all, "simple/luma"), corpus.ByName(all, "ui/flat")
	if warm == nil || cold == nil {
		t.Fatal("missing corpus shaders")
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}

	healthy := httptest.NewServer(New(Config{Store: st, Platforms: []*gpu.Platform{gpu.NewNVIDIA()}}).Handler())
	want, err := (&Client{BaseURL: healthy.URL}).Sweep(fastRequest(warm), nil)
	healthy.Close()
	if err != nil {
		t.Fatal(err)
	}

	broken := gpu.NewNVIDIA()
	broken.Ingest = "dxil"
	ts := httptest.NewServer(New(Config{Store: st, Platforms: []*gpu.Platform{broken}}).Handler())
	defer ts.Close()
	c := &Client{BaseURL: ts.URL}
	for i := 0; i < 2; i++ {
		_, err := c.Sweep(fastRequest(cold), nil)
		if err == nil || !strings.Contains(err.Error(), "ingest") {
			t.Fatalf("request %d: error = %v, want an ingest failure", i, err)
		}
	}
	if err := c.Health(); err != nil {
		t.Fatalf("daemon unhealthy after ingest failures: %v", err)
	}
	got, err := c.Sweep(fastRequest(warm), nil)
	if err != nil {
		t.Fatalf("next request after ingest failures: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store-served scores differ from the healthy daemon's:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSweepdRecoversRequestPanic pins the last line of defence: a panic
// on the request goroutine (here a nil platform in the roster, which
// panics while the session is built) becomes a 500 naming the internal
// error, is counted in sweepd.panics, and leaves the daemon serving.
func TestSweepdRecoversRequestPanic(t *testing.T) {
	server := New(Config{Platforms: []*gpu.Platform{nil}})
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	probe := corpus.ByName(corpus.MustLoad(), "simple/luma")
	for i := 0; i < 2; i++ {
		_, err := (&Client{BaseURL: ts.URL}).Sweep(fastRequest(probe), nil)
		if err == nil || !strings.Contains(err.Error(), "internal error") {
			t.Fatalf("request %d: error = %v, want the recovered panic", i, err)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.TrimSpace(string(body)) != "ok" {
		t.Fatalf("healthz = %q after recovered panics", body)
	}
	if n := server.Telemetry().Counter("sweepd.panics").Value(); n != 2 {
		t.Fatalf("sweepd.panics = %d, want 2", n)
	}
}

// TestSweepdRejectsOversizedBody pins the request-size bound: a /sweep
// body past maxRequestBytes is refused with 413 before it is buffered
// whole, and the daemon keeps serving the next request.
func TestSweepdRejectsOversizedBody(t *testing.T) {
	probe := corpus.ByName(corpus.MustLoad(), "simple/luma")
	if probe == nil {
		t.Fatal("missing corpus shader simple/luma")
	}
	ts := httptest.NewServer(New(Config{Platforms: []*gpu.Platform{gpu.NewNVIDIA()}}).Handler())
	defer ts.Close()

	// One shader whose source alone is a byte past the bound, streamed so
	// the test never holds the body in memory.
	body := io.MultiReader(
		strings.NewReader(`{"protocol":"fast","shaders":[{"name":"big","source":"`),
		io.LimitReader(repeatReader('a'), maxRequestBytes+1),
		strings.NewReader(`"}]}`),
	)
	resp, err := http.Post(ts.URL+"/sweep", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %s, want 413", resp.Status)
	}

	c := &Client{BaseURL: ts.URL}
	if err := c.Health(); err != nil {
		t.Fatalf("daemon unhealthy after an oversized body: %v", err)
	}
	if _, err := c.Sweep(fastRequest(probe), nil); err != nil {
		t.Fatalf("next request after an oversized body: %v", err)
	}
}

// repeatReader is an endless stream of one byte.
type repeatReader byte

func (r repeatReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r)
	}
	return len(p), nil
}
