package crossc

import (
	"fmt"

	"shaderopt/internal/ir"
	"shaderopt/internal/msl"
	"shaderopt/internal/spirvgen"
)

// Ingestion format names for Reingest and gpu.Platform.Ingest. They
// mirror core.Backend's flag spellings but stay plain strings so the
// platform table remains pure data with no dependency on the optimizer
// layer.
const (
	// IngestGLSL is the identity: the driver front end consumes the
	// desktop-GLSL interchange form directly, as every platform did
	// before the multi-backend work.
	IngestGLSL = "glsl"
	// IngestMSL hands the driver Metal Shading Language translated from
	// the interchange form (a MoltenVK/MoltenGL-style runtime).
	IngestMSL = "msl"
	// IngestSPIRV hands the driver a binary SPIR-V module translated
	// from the interchange form (a glslang-style runtime).
	IngestSPIRV = "spirv"
)

// Reingest rebuilds a lowered program through a driver's preferred
// ingestion format: the program is serialized by the named backend and
// re-ingested by the matching front end, exactly the translation step a
// runtime performs before the vendor JIT sees the shader. Like the ES
// conversion, the round trip is render-lossless (pinned by the
// backend-differential suite) but re-structures the program — the
// artefacts the vendor pipeline then consumes are real consequences of
// the interchange, not hard-coded.
//
// IngestGLSL (and "") is the identity and returns prog itself; the
// other formats return a fresh program owned by the caller, which may
// sit off the canonicalization fixed point — callers feeding a vendor
// pipeline must re-canonicalize.
func Reingest(prog *ir.Program, name, format string) (*ir.Program, error) {
	switch format {
	case "", IngestGLSL:
		return prog, nil
	case IngestMSL:
		src, err := msl.Emit(prog)
		if err != nil {
			return nil, fmt.Errorf("crossc msl ingest: %w", err)
		}
		re, err := msl.Compile(src, name)
		if err != nil {
			return nil, fmt.Errorf("crossc msl ingest: %w", err)
		}
		return re, nil
	case IngestSPIRV:
		words, err := spirvgen.Emit(prog)
		if err != nil {
			return nil, fmt.Errorf("crossc spirv ingest: %w", err)
		}
		re, err := spirvgen.Decode(words, name)
		if err != nil {
			return nil, fmt.Errorf("crossc spirv ingest: %w", err)
		}
		return re, nil
	}
	return nil, fmt.Errorf("crossc: unknown ingestion format %q", format)
}
