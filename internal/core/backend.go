package core

import (
	"fmt"
	"strings"

	"shaderopt/internal/glslgen"
	"shaderopt/internal/ir"
	"shaderopt/internal/msl"
	"shaderopt/internal/spirvgen"
)

// Backend selects a code-generation target for a lowered program. The
// middle end is target-independent; a backend only decides the surface
// form a driver ingests. GLSL is the paper's interchange form, MSL is
// textual Metal Shading Language, and SPIRV is a binary SPIR-V 1.0
// module. Every backend is lossless over the IR subset: re-parsing (or
// decoding) its output rebuilds a program that renders bit-identically,
// which the backend-differential suite pins corpus-wide.
type Backend int

// Supported codegen backends.
const (
	// BackendGLSL emits desktop GLSL text (glslgen, #version 330 core).
	BackendGLSL Backend = iota
	// BackendMSL emits Metal Shading Language text.
	BackendMSL
	// BackendSPIRV emits a binary SPIR-V 1.0 module (little-endian).
	BackendSPIRV
)

func (b Backend) String() string {
	switch b {
	case BackendGLSL:
		return "glsl"
	case BackendMSL:
		return "msl"
	case BackendSPIRV:
		return "spirv"
	}
	return fmt.Sprintf("Backend(%d)", int(b))
}

// Binary reports whether the backend's output is a binary format rather
// than text (SPIR-V word streams vs. GLSL/MSL source).
func (b Backend) Binary() bool { return b == BackendSPIRV }

// Backends lists every supported backend, in flag-name order.
func Backends() []Backend { return []Backend{BackendGLSL, BackendMSL, BackendSPIRV} }

// ParseBackend parses a -backend flag value.
func ParseBackend(s string) (Backend, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "glsl":
		return BackendGLSL, nil
	case "msl", "metal":
		return BackendMSL, nil
	case "spirv", "spv", "spir-v":
		return BackendSPIRV, nil
	}
	return BackendGLSL, fmt.Errorf("unknown backend %q (want glsl, msl, or spirv)", s)
}

// EmitIR serializes a lowered program in the backend's format. Text
// backends return source bytes; BackendSPIRV returns a little-endian
// binary module. The program is not modified.
func EmitIR(p *ir.Program, b Backend) ([]byte, error) {
	switch b {
	case BackendGLSL:
		return []byte(glslgen.Generate(p, glslgen.Desktop)), nil
	case BackendMSL:
		src, err := msl.Emit(p)
		if err != nil {
			return nil, err
		}
		return []byte(src), nil
	case BackendSPIRV:
		return spirvgen.EmitBytes(p)
	}
	return nil, fmt.Errorf("unknown backend %v", b)
}

// ReparseBackend rebuilds an IR program from a backend's output — the
// ingestion step a driver front end performs. It is the inverse of
// EmitIR for every backend and closes the differential loop:
// ReparseBackend(EmitIR(p, b), b) renders identically to p.
func ReparseBackend(data []byte, name string, b Backend) (*ir.Program, error) {
	switch b {
	case BackendGLSL:
		return lowerLang(nil, string(data), name, LangGLSL)
	case BackendMSL:
		return msl.Compile(string(data), name)
	case BackendSPIRV:
		return spirvgen.DecodeBytes(data, name)
	}
	return nil, fmt.Errorf("unknown backend %v", b)
}

// Emit serializes the shader's unoptimized IR through the given backend.
func (s *Shader) Emit(b Backend) ([]byte, error) {
	return EmitIR(s.base, b)
}

// EmitOptimized serializes the shader's IR after running the optimizer
// with the given flags through the given backend.
func (s *Shader) EmitOptimized(flags Flags, b Backend) ([]byte, error) {
	return EmitIR(s.OptimizeIR(flags), b)
}
