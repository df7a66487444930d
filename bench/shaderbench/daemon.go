package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/sweepd"
)

// daemonRequests builds the daemon workload's requests from what the
// repository's one sweepd client sends. cmd/sweep -server posts one fast
// request per study, holding the whole corpus or the shaders of one -lang,
// and reads its scores before the next study: the nightly job sends the
// whole corpus twice a run, CI sends -lang wgsl, and the root README shows
// both. A round is the whole corpus twice and each language that has
// corpus shaders once (MSL has none). The first request is the whole
// corpus. An odd round keeps the median request inside one kind of
// request, not on the edge between the small per-language ones and the
// large ones.
func daemonRequests(shaders []*corpus.Shader) []sweepd.SweepRequest {
	all := sweepd.SweepRequest{Protocol: "fast"}
	byLang := map[core.Lang]*sweepd.SweepRequest{}
	for _, s := range shaders {
		src := sweepd.ShaderSource{Name: s.Name, Source: s.Source, Lang: s.Lang.String()}
		all.Shaders = append(all.Shaders, src)
		if byLang[s.Lang] == nil {
			byLang[s.Lang] = &sweepd.SweepRequest{Protocol: "fast"}
		}
		byLang[s.Lang].Shaders = append(byLang[s.Lang].Shaders, src)
	}
	reqs := []sweepd.SweepRequest{all, all}
	for _, lang := range []core.Lang{core.LangGLSL, core.LangWGSL, core.LangHLSL, core.LangMSL} {
		if req := byLang[lang]; req != nil {
			reqs = append(reqs, *req)
		}
	}
	return reqs
}

// daemonClient is the daemon workload's one closed-loop client, on one
// keep-alive connection. It sends rounds of the workload's requests, each
// round in an order drawn from the seed. Between requests it only compares
// the final (results) line of each response, byte for byte, with the first
// one the same request got; check verifies those first lines, and any that
// differ, against the golden after the measurement.
type daemonClient struct {
	requests []sweepd.SweepRequest
	client   *sweepd.Client
	body     bytes.Buffer // the current response, copied as the client reads it
	received int64        // response bytes received
	rng      *rand.Rand
	round    []int
	// lines[i] for i < len(requests) is request i's first results line;
	// lines that differ from it follow.
	lines []responseLine
}

type responseLine struct {
	req  int
	line []byte
	n    int // responses that carried this line
}

func newDaemonClient(e *env, seed int64) *daemonClient {
	d := &daemonClient{requests: e.requests, rng: rand.New(rand.NewSource(seed)),
		lines: make([]responseLine, len(e.requests))}
	d.client = newClient(e.ts.URL, func(rt http.RoundTripper) http.RoundTripper {
		return teeTransport{rt: rt, w: &d.body}
	})
	return d
}

func (d *daemonClient) close() { d.client.HTTPClient.CloseIdleConnections() }

// next returns the index of the next request to send.
func (d *daemonClient) next() int {
	if len(d.round) == 0 {
		d.round = d.rng.Perm(len(d.requests))
	}
	i := d.round[0]
	d.round = d.round[1:]
	return i
}

// send posts request i, reads and decodes its response as cmd/sweep does,
// and returns the wall time in seconds.
func (d *daemonClient) send(i int) (float64, error) {
	d.body.Reset()
	t := time.Now()
	_, err := d.client.Sweep(d.requests[i], nil)
	wall := since(t)
	d.received += int64(d.body.Len())
	if err == nil {
		d.keep(i, lastLine(d.body.Bytes()))
	}
	return wall, err
}

func (d *daemonClient) keep(i int, line []byte) {
	first := &d.lines[i]
	switch {
	case first.n == 0:
		*first = responseLine{req: i, line: bytes.Clone(line), n: 1}
	case bytes.Equal(line, first.line):
		first.n++
	default:
		d.lines = append(d.lines, responseLine{req: i, line: bytes.Clone(line), n: 1})
	}
}

// check verifies every kept results line against the request it answers
// and the golden, failing each response that carried a bad line.
func (d *daemonClient) check(gold *golden, r *result) {
	for _, l := range d.lines {
		if l.n == 0 {
			continue
		}
		if err := checkResponse(gold, d.requests[l.req], l.line); err != nil {
			r.Failed += l.n
			r.note("FAIL: %d response(s): %v", l.n, err)
		}
	}
}

func checkResponse(gold *golden, req sweepd.SweepRequest, line []byte) error {
	var sl sweepd.StreamLine
	if err := json.Unmarshal(line, &sl); err != nil {
		return err
	}
	if len(sl.Results) != len(req.Shaders) {
		return fmt.Errorf("%d results for %d shaders", len(sl.Results), len(req.Shaders))
	}
	for k, s := range sl.Results {
		if s.Name != req.Shaders[k].Name {
			return fmt.Errorf("result %d is %s, want %s", k, s.Name, req.Shaders[k].Name)
		}
	}
	if bad := gold.failedShaders(sl.Results); len(bad) > 0 {
		return fmt.Errorf("scores differ from the golden: %v", bad)
	}
	return nil
}

// lastLine returns the last line of a newline-delimited stream.
func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// teeTransport copies every response body into w as it is read.
type teeTransport struct {
	rt http.RoundTripper
	w  io.Writer
}

func (t teeTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(req)
	if err == nil {
		resp.Body = struct {
			io.Reader
			io.Closer
		}{io.TeeReader(resp.Body, t.w), resp.Body}
	}
	return resp, err
}

// measureDaemon runs the daemon's client for the window, then checks the
// responses. CPU and allocation per op are the window's totals over its
// requests.
func measureDaemon(cfg runConfig, e *env, r *result) {
	d := newDaemonClient(e, cfg.seed)
	defer d.close()
	var walls []float64
	before := readUsage()
	for time.Since(before.wall) < cfg.window && (cfg.maxOps <= 0 || len(walls) < cfg.maxOps) {
		wall, err := d.send(d.next())
		walls = append(walls, wall)
		r.Attempted++
		if err != nil {
			r.fail("request: %v", err)
		}
	}
	after := readUsage()
	d.check(e.gold, r)
	n := float64(len(walls))
	elapsed := after.wall.Sub(before.wall).Seconds()
	reportOps(r, walls, (after.cpu-before.cpu)/n, float64(after.alloc-before.alloc)/n, n/elapsed)
	r.note("daemon: one client, %d requests in rounds of %d", len(walls), len(e.requests))
}
