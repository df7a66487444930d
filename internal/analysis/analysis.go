// Package analysis computes the paper's static corpus characterizations
// — the lines-of-code distribution (Fig. 4a), the ARM static-analyser
// cycle counts (Fig. 4b), and the unique-variant counts from the
// exhaustive flag enumeration (Fig. 4c) — plus the comparative study
// layer: sweep results grouped by source language and by driver
// ingestion format (LangGroupMeans, BackendGroupMeans) and the
// cross-language / cross-backend transfer matrices (LangTransferMatrix,
// BackendTransferMatrix), which apply the best static flag set learned
// on one group to every other and report the fraction of the win kept.
package analysis

import (
	"fmt"
	"sort"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/crossc"
	"shaderopt/internal/gpu"
)

// LoC is one shader's Fig. 4a data point.
type LoC struct {
	Name  string
	Lines int
}

// LinesOfCode returns per-shader post-preprocessing line counts, sorted
// descending (the paper's presentation order).
func LinesOfCode(shaders []*corpus.Shader) []LoC {
	out := make([]LoC, 0, len(shaders))
	for _, s := range shaders {
		out = append(out, LoC{Name: s.Name, Lines: s.Lines})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lines != out[j].Lines {
			return out[i].Lines > out[j].Lines
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// StaticCycles is one shader's Fig. 4b data point: the Mali offline
// analyser's cycle decomposition on the longest execution path.
type StaticCycles struct {
	Name      string
	Arith     float64
	LoadStore float64
	Texture   float64
}

// Total returns the summed cycles (the plotted metric).
func (s StaticCycles) Total() float64 { return s.Arith + s.LoadStore + s.Texture }

// ARMStaticCycles compiles each shader with the ARM platform's driver
// (through the mobile conversion path, like the real Mali offline
// compiler's input) and reports the per-pipe cycle counts, sorted
// descending by total.
func ARMStaticCycles(shaders []*corpus.Shader) ([]StaticCycles, error) {
	arm := gpu.PlatformByVendor("ARM")
	out := make([]StaticCycles, 0, len(shaders))
	for _, s := range shaders {
		src, err := core.ToGLSL(s.Source, s.Name, s.Lang)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		es, err := crossc.ToES(src, s.Name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		c, err := arm.CompileSource(es)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		out = append(out, StaticCycles{
			Name:      s.Name,
			Arith:     c.Arith,
			LoadStore: c.LoadStore,
			Texture:   c.Texture,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total() != out[j].Total() {
			return out[i].Total() > out[j].Total()
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}

// Uniqueness is one shader's Fig. 4c data point.
type Uniqueness struct {
	Name    string
	Unique  int
	MaxSets int // always 256
}

// UniqueVariants enumerates all flag combinations per shader and counts
// distinct outputs, sorted descending.
func UniqueVariants(shaders []*corpus.Shader) ([]Uniqueness, error) {
	out := make([]Uniqueness, 0, len(shaders))
	for _, s := range shaders {
		h, err := core.Compile(s.Source, s.Name, s.Lang)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.Name, err)
		}
		out = append(out, Uniqueness{Name: s.Name, Unique: h.Variants().Unique(), MaxSets: 256})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Unique != out[j].Unique {
			return out[i].Unique > out[j].Unique
		}
		return out[i].Name < out[j].Name
	})
	return out, nil
}
