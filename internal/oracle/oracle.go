// Package oracle holds the reference implementations the study's
// optimized paths are differentially tested and benchmarked against: the
// clone-per-combination variant enumeration and the per-variant
// measurement sweep. Both are the straightforward form of their
// operation, written against exported API only, so they stay
// independent of the memoized trie walk and the batched, cached session
// pipeline they check. The package is test support: only _test.go files
// import it.
package oracle

import (
	"fmt"

	"shaderopt/internal/core"
	"shaderopt/internal/glslgen"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/passes"
)

// Variants enumerates all 256 flag combinations of a handle from scratch:
// every combination clones the prepared program, runs its flagged passes,
// and generates desktop GLSL; outputs are deduplicated by source hash in
// ascending flag-value order. The memoized enumeration
// (core.Shader.Variants) must be byte-identical to it.
func Variants(h *core.Shader) *core.VariantSet {
	pre := h.IR()
	passes.Prepare(pre)
	vs := &core.VariantSet{Name: h.Name, ByFlags: make(map[core.Flags]*core.Variant, 256)}
	byHash := map[string]*core.Variant{}
	for _, flags := range passes.AllCombinations() {
		prog := pre.Clone()
		passes.RunFlagged(prog, flags)
		out := glslgen.Generate(prog, glslgen.Desktop)
		hash := core.HashSource(out)
		v, ok := byHash[hash]
		if !ok {
			v = &core.Variant{Source: out, Hash: hash}
			byHash[hash] = v
			vs.Variants = append(vs.Variants, v)
		}
		v.FlagSets = append(v.FlagSets, flags)
		vs.ByFlags[flags] = v
	}
	return vs
}

// Scores is one shader's reference measurements, keyed like
// search.ShaderResult: OrigNS maps vendor to the original baseline's
// score, VariantNS maps vendor and variant hash to the variant's score.
type Scores struct {
	Name      string
	OrigNS    map[string]float64
	VariantNS map[string]map[string]float64
}

// Sweep measures every handle's driver-visible original (Shader.GLSL) and
// every distinct variant (Shader.Variants) on every platform, one
// independent harness.MeasureSource call per (shader, platform, text):
// converted, parsed, lowered, canonicalized, vendor-compiled, and sampled
// from scratch, serially, with no caching. The batched session sweep
// (search.Session.Sweep) must score identically to it.
func Sweep(handles []*core.Shader, platforms []*gpu.Platform, cfg harness.Config) ([]*Scores, error) {
	out := make([]*Scores, len(handles))
	for i, h := range handles {
		vs := h.Variants()
		r := &Scores{
			Name:      h.Name,
			OrigNS:    make(map[string]float64, len(platforms)),
			VariantNS: make(map[string]map[string]float64, len(platforms)),
		}
		for _, pl := range platforms {
			m, err := harness.MeasureSource(pl, h.GLSL(), cfg)
			if err != nil {
				return nil, fmt.Errorf("%s: original on %s: %w", h.Name, pl.Vendor, err)
			}
			r.OrigNS[pl.Vendor] = m.Score()
			perVariant := make(map[string]float64, len(vs.Variants))
			for _, v := range vs.Variants {
				m, err := harness.MeasureSource(pl, v.Source, cfg)
				if err != nil {
					return nil, fmt.Errorf("%s: variant %s on %s: %w", h.Name, v.Hash, pl.Vendor, err)
				}
				perVariant[v.Hash] = m.Score()
			}
			r.VariantNS[pl.Vendor] = perVariant
		}
		out[i] = r
	}
	return out, nil
}
