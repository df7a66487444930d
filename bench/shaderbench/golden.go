package main

import (
	"bufio"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"shaderopt/internal/search"
	"shaderopt/internal/sweepd"
)

// goldenText pins every score bit of the full-corpus fast study. Regenerate
// with `go test -run TestGolden -update` from this directory.
//
//go:embed testdata/scores.golden
var goldenText string

// golden is the parsed score golden: one digest per corpus shader, plus the
// digest of the full-corpus report text.
type golden struct {
	report  string
	shaders map[string]goldenEntry
}

type goldenEntry struct {
	unique int
	digest string
}

const goldenHeader = "# shaderbench score golden: name, unique variants, sha256 of the sorted (vendor, variant hash, float64 bits) tuples; \"report\" is the sha256 of the rendered report\n"

// parseGolden reads the golden file format written by formatGolden.
func parseGolden(text string) (*golden, error) {
	g := &golden{shaders: map[string]goldenEntry{}}
	sc := bufio.NewScanner(strings.NewReader(text))
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		switch {
		case len(f) == 2 && f[0] == "report":
			g.report = f[1]
		case len(f) == 3:
			u, err := strconv.Atoi(f[1])
			if err != nil {
				return nil, fmt.Errorf("golden line %d: %v", n, err)
			}
			g.shaders[f[0]] = goldenEntry{unique: u, digest: f[2]}
		default:
			return nil, fmt.Errorf("golden line %d: malformed %q", n, line)
		}
	}
	if g.report == "" || len(g.shaders) == 0 {
		return nil, fmt.Errorf("golden: no report digest or no shaders")
	}
	return g, nil
}

// formatGolden renders a golden from a full-corpus result and its report.
func formatGolden(results []sweepd.ShaderScores, report string) string {
	var sb strings.Builder
	sb.WriteString(goldenHeader)
	fmt.Fprintf(&sb, "report %s\n", textDigest(report))
	sorted := append([]sweepd.ShaderScores(nil), results...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, r := range sorted {
		u, d := shaderDigest(r)
		fmt.Fprintf(&sb, "%s %d %s\n", r.Name, u, d)
	}
	return sb.String()
}

func textDigest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// shaderDigest returns a shader's unique-variant count and the sha256 of
// its sorted (vendor, variant hash, float64 bits) tuples. The original
// baseline is the tuple with hash "orig".
func shaderDigest(r sweepd.ShaderScores) (int, string) {
	var tuples []string
	distinct := map[string]bool{}
	for vendor, ns := range r.Orig {
		tuples = append(tuples, fmt.Sprintf("%s orig %016x", vendor, math.Float64bits(ns)))
	}
	for vendor, m := range r.Variants {
		for hash, ns := range m {
			distinct[hash] = true
			tuples = append(tuples, fmt.Sprintf("%s %s %016x", vendor, hash, math.Float64bits(ns)))
		}
	}
	sort.Strings(tuples)
	return len(distinct), textDigest(strings.Join(tuples, "\n"))
}

// failedShaders returns the names of the shaders whose scores differ from
// the golden in any bit, or which the golden does not know.
func (g *golden) failedShaders(results []sweepd.ShaderScores) []string {
	var failed []string
	for _, r := range results {
		u, d := shaderDigest(r)
		if want, ok := g.shaders[r.Name]; !ok || want.unique != u || want.digest != d {
			failed = append(failed, r.Name)
		}
	}
	return failed
}

// scoresOf converts a sweep's results to the wire shape the checker reads.
func scoresOf(results []*search.ShaderResult) []sweepd.ShaderScores {
	out := make([]sweepd.ShaderScores, len(results))
	for i, r := range results {
		out[i] = sweepd.ShaderScores{Name: r.Name(), Orig: r.OrigNS, Variants: r.VariantNS}
	}
	return out
}
