package core

import (
	"sync"
	"sync/atomic"

	"shaderopt/internal/glslgen"
	"shaderopt/internal/ir"
	"shaderopt/internal/passes"
	"shaderopt/internal/telemetry"
)

// frontendParses counts source-language frontend parses (GLSL, WGSL, or
// HLSL) performed by this process. The compiled-handle API exists so a study
// pays exactly one frontend parse per shader; tests assert that invariant
// through FrontendParses.
var frontendParses atomic.Int64

// FrontendParses returns the number of frontend parse+lower runs performed
// so far. Driver front ends (the per-platform GLSL parse inside the
// simulated JITs and the crossc conversion) are not frontend parses and
// are not counted.
func FrontendParses() int64 { return frontendParses.Load() }

// Shader is a compiled handle: the source parsed and lowered exactly once,
// with every product of the study pipeline derived from the cached IR by
// clone-then-transform. Handles are safe for concurrent use; the base
// program is never mutated after Compile.
type Shader struct {
	// Name labels the shader in results and error messages.
	Name string
	// Lang is the resolved (never LangAuto) source language.
	Lang Lang
	// Source is the original source text.
	Source string
	// Hash is the content hash of Source.
	Hash string

	base *ir.Program

	variantsOnce sync.Once
	variants     *VariantSet

	glslOnce sync.Once
	glslSrc  string
}

// Compile parses and lowers source once, returning the handle every other
// operation reuses. lang may be LangAuto.
func Compile(src, name string, lang Lang) (*Shader, error) {
	return CompileT(nil, src, name, lang)
}

// CompileT is Compile with a telemetry registry threaded in: the single
// frontend parse records its per-language span and counters. A nil
// registry records nothing.
func CompileT(reg *telemetry.Registry, src, name string, lang Lang) (*Shader, error) {
	resolved := lang.Resolve(src)
	base, err := lowerLang(reg, src, name, resolved)
	if err != nil {
		return nil, err
	}
	return &Shader{
		Name:   name,
		Lang:   resolved,
		Source: src,
		Hash:   HashSource(src),
		base:   base,
	}, nil
}

// IR returns a fresh clone of the lowered program, owned by the caller.
func (s *Shader) IR() *ir.Program { return s.base.Clone() }

// Optimize runs the flagged passes on a clone of the cached IR and
// returns the optimized desktop GLSL.
func (s *Shader) Optimize(flags Flags) string {
	return glslgen.Generate(s.OptimizeIR(flags), glslgen.Desktop)
}

// OptimizeIR runs the flagged passes on a clone of the cached IR and
// returns the transformed program, owned by the caller.
func (s *Shader) OptimizeIR(flags Flags) *ir.Program {
	p := s.base.Clone()
	passes.Run(p, flags)
	return p
}

// Variants enumerates all 256 flag combinations from the cached IR and
// deduplicates the outputs, walking the memoized trie inline with no
// shared table. The enumeration runs once per handle and is cached;
// callers share the returned set and must not mutate it.
func (s *Shader) Variants() *VariantSet { return s.VariantsSharedT(nil, 1, nil) }

// VariantsSharedT is Variants with its three knobs exposed: the
// enumeration that actually runs (the first per handle — later calls
// return the memo) records its span and the trie walk's node/merge/
// collapse counters into reg, shards the walk across `workers`
// goroutines (<= 1 runs inline), and consults `shared` before running a
// pass on an intermediate IR another shader already pushed through that
// step, feeding it with what it computes privately. The variant set is
// independent of the worker count and byte-identical to a private walk
// (sharing stays at the transform level), so one memo serves every call.
// A nil registry records nothing; a nil table is a private walk.
func (s *Shader) VariantsSharedT(reg *telemetry.Registry, workers int, shared *SharedTrie) *VariantSet {
	s.variantsOnce.Do(func() {
		s.variants = enumerateFromIR(reg, s.base, s.Name, workers, shared)
	})
	return s.variants
}

// LegacyVariants runs the pre-memoization reference enumeration — every
// combination cloned and optimized from scratch — bypassing the handle
// cache. It exists as the differential-testing and benchmarking oracle
// for the trie path; study code should use Variants.
func (s *Shader) LegacyVariants() *VariantSet {
	return legacyEnumerateFromIR(s.base, s.Name)
}

// GLSL returns the driver-visible desktop GLSL: the original text for GLSL
// input (the driver sees the author's source), or the cached unoptimized
// translation for WGSL and HLSL input. Computed at most once per handle.
func (s *Shader) GLSL() string {
	s.glslOnce.Do(func() {
		if s.Lang == LangGLSL {
			s.glslSrc = s.Source
			return
		}
		s.glslSrc = s.Optimize(NoFlags)
	})
	return s.glslSrc
}
