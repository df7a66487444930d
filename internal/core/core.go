// Package core is the offline shader optimization library — the paper's
// primary contribution surface. It wraps the full source-to-source
// pipeline (frontend parse/lower → flagged passes → GLSL codegen),
// dispatches between the GLSL and WGSL frontends (both lower into the
// same IR, so the passes and every downstream stage are
// frontend-independent), enumerates the 256 flag combinations, and
// deduplicates the generated variants the way the paper's
// iterative-compilation study does (§III-A, Fig. 4c: "most of the flags
// do not alter the source code, resulting in large numbers of duplicate
// shaders").
package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/lower"
	"shaderopt/internal/passes"
	"shaderopt/internal/telemetry"
)

// Flags re-exports the optimizer flag set for API convenience.
type Flags = passes.Flags

// Re-exported flag constants.
const (
	FlagADCE          = passes.FlagADCE
	FlagCoalesce      = passes.FlagCoalesce
	FlagGVN           = passes.FlagGVN
	FlagReassociate   = passes.FlagReassociate
	FlagUnroll        = passes.FlagUnroll
	FlagHoist         = passes.FlagHoist
	FlagFPReassociate = passes.FlagFPReassociate
	FlagDivToMul      = passes.FlagDivToMul
	DefaultFlags      = passes.DefaultFlags
	AllFlags          = passes.AllFlags
	NoFlags           = passes.NoFlags
)

func lowerGLSL(reg *telemetry.Registry, src, name string) (*ir.Program, error) {
	countParse(reg, LangGLSL)
	span := reg.StartSpan("parse glsl", "frontend").Arg("shader", name)
	defer span.End()
	sh, err := glsl.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	prog, err := lower.Lower(sh, name)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return prog, nil
}

// countParse records one frontend parse+lower run: the process-wide
// FrontendParses counter (the one-parse-per-shader invariant tests pin)
// and, when a registry is threaded in, the per-language registry
// counters that generalize it.
func countParse(reg *telemetry.Registry, lang Lang) {
	frontendParses.Add(1)
	reg.Counter("frontend.parses").Inc()
	reg.Counter("frontend.parses." + lang.String()).Inc()
}

// Variant is one distinct optimization output for a shader.
type Variant struct {
	// Source is the generated desktop GLSL.
	Source string
	// Hash identifies the source text.
	Hash string
	// FlagSets lists every flag combination that produced this source, in
	// ascending numeric order. The first entry is the canonical one.
	FlagSets []Flags
}

// Canonical returns the representative flag set.
func (v *Variant) Canonical() Flags { return v.FlagSets[0] }

// HasFlagInAll reports whether flag f is set in every flag set mapping to
// this variant (used by per-flag attribution).
func (v *Variant) HasFlagInAll(f Flags) bool {
	for _, fs := range v.FlagSets {
		if !fs.Has(f) {
			return false
		}
	}
	return true
}

// VariantSet is the deduplicated result of the exhaustive flag
// enumeration for one shader.
type VariantSet struct {
	Name string
	// Variants in order of first appearance (ascending flag value).
	Variants []*Variant
	// ByFlags maps each of the 256 combinations to its variant.
	ByFlags map[Flags]*Variant
}

// Unique returns the number of distinct generated sources (Fig. 4c).
func (vs *VariantSet) Unique() int { return len(vs.Variants) }

// VariantFor returns the variant a flag combination produces.
func (vs *VariantSet) VariantFor(f Flags) *Variant { return vs.ByFlags[f] }

// FlagChangesOutput reports whether toggling flag f changes the generated
// source for at least one setting of the other flags (the "red" metric of
// Fig. 8).
func (vs *VariantSet) FlagChangesOutput(f Flags) bool {
	for _, base := range passes.AllCombinations() {
		if base.Has(f) {
			continue
		}
		if vs.ByFlags[base] != vs.ByFlags[base|f] {
			return true
		}
	}
	return false
}

// HashSource returns a stable content hash for generated source.
func HashSource(src string) string {
	sum := sha256.Sum256([]byte(src))
	return hex.EncodeToString(sum[:8])
}
