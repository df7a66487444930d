package shaderopt

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
)

// fuzzGrid is the render grid FuzzBackendRoundTrip compares on: small,
// so a campaign spends its time on inputs rather than pixels.
const fuzzGrid = 4

// FuzzBackendRoundTrip checks the backend loop for anything Compile
// accepts: each of the three backends must either return an error from
// Emit or ReparseBackend, or re-ingest to a program that passes Verify
// and renders bit-identically to the original on a small grid (a NaN
// channel must stay NaN). Inputs whose original does not render are
// skipped. Seeds are the corpus (GLSL, WGSL and HLSL) and the MSL backend
// snapshots. CI runs a short -fuzztime smoke; `go test -fuzz
// FuzzBackendRoundTrip -run '^$' .` runs an open-ended campaign.
func FuzzBackendRoundTrip(f *testing.F) {
	shaders, err := corpus.Load()
	if err != nil {
		f.Fatal(err)
	}
	for _, sh := range shaders {
		f.Add(sh.Source)
	}
	snaps, err := filepath.Glob(filepath.Join(snapshotDir, "*.msl"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range snaps {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		sh, err := Compile(src, "fuzz")
		if err != nil {
			return // rejected inputs just must not panic
		}
		want, err := sh.Render(fuzzGrid, fuzzGrid, NoFlags)
		if err != nil {
			return // nothing to compare against
		}
		for _, b := range core.Backends() {
			out, err := sh.Emit(b)
			if err != nil {
				continue
			}
			re, err := core.ReparseBackend(out, "fuzz", b)
			if err != nil {
				continue
			}
			if err := re.Verify(); err != nil {
				t.Fatalf("%s round trip re-ingests to invalid IR: %v\nsource:\n%s", b, err, src)
			}
			got, err := renderProgram(re, fuzzGrid, fuzzGrid)
			if err != nil {
				t.Fatalf("%s round trip does not render: %v\nsource:\n%s", b, err, src)
			}
			for y := range want {
				for x := range want[y] {
					for c, w := range want[y][x] {
						if g := got[y][x][c]; !sameBits(w, g) {
							t.Fatalf("%s round trip renders pixel (%d,%d) channel %d as %v, original %v\nsource:\n%s",
								b, x, y, c, g, w, src)
						}
					}
				}
			}
		}
	})
}

// sameBits reports whether two rendered channels are bit-identical,
// treating every NaN as equal to every other.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}
