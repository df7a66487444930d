package core

import (
	"fmt"
	"strings"

	"shaderopt/internal/hlsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/msl"
	"shaderopt/internal/telemetry"
	"shaderopt/internal/wgsl"
)

// Lang selects a source language frontend. The optimizer's middle end,
// platforms, and study machinery are frontend-independent: all three
// languages lower to the same IR program form.
type Lang int

// Supported source languages.
const (
	// LangAuto detects the language from the source text.
	LangAuto Lang = iota
	// LangGLSL is desktop GLSL (the paper's original study language).
	LangGLSL
	// LangWGSL is the WebGPU Shading Language.
	LangWGSL
	// LangHLSL is the Direct3D High-Level Shading Language.
	LangHLSL
	// LangMSL is the Metal Shading Language.
	LangMSL
)

func (l Lang) String() string {
	switch l {
	case LangAuto:
		return "auto"
	case LangGLSL:
		return "glsl"
	case LangWGSL:
		return "wgsl"
	case LangHLSL:
		return "hlsl"
	case LangMSL:
		return "msl"
	}
	return fmt.Sprintf("Lang(%d)", int(l))
}

// ParseLang parses a -lang flag value.
func ParseLang(s string) (Lang, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "auto":
		return LangAuto, nil
	case "glsl":
		return LangGLSL, nil
	case "wgsl":
		return LangWGSL, nil
	case "hlsl":
		return LangHLSL, nil
	case "msl", "metal":
		return LangMSL, nil
	}
	return LangAuto, fmt.Errorf("unknown language %q (want auto, glsl, wgsl, hlsl, or msl)", s)
}

// DetectLang guesses the source language from unambiguous syntax markers
// in the code itself: WGSL is attributed (`@fragment`, and on entry points
// that omit it, `@location`/`@builtin`/`@group`/`@binding`); HLSL has
// `cbuffer` blocks, `SV_`-prefixed system-value semantics, `register(...)`
// bindings, and its own vector/matrix/resource type names (float4,
// float3x3, Texture2D, SamplerState — GLSL spells these vec4, mat3,
// sampler2D); every GLSL shader in the subset has `void main` and usually
// a #version line. MSL shares HLSL's float2/float4 type names, so its
// unmistakable markers — attribute brackets like `[[stage_in]]`, the
// templated `texture2d<`/`texturecube<` resource types, and the
// metal_stdlib preamble — are checked before the HLSL word list.
// Comments are stripped first so prose mentioning another language's
// syntax cannot flip the detection, and HLSL type names only count as
// whole words so a GLSL identifier like `myfloat2` stays GLSL.
func DetectLang(src string) Lang {
	code := stripComments(src)
	for _, marker := range []string{"@fragment", "@location(", "@builtin(", "@group(", "@binding("} {
		if strings.Contains(code, marker) {
			return LangWGSL
		}
	}
	for _, marker := range []string{
		"[[stage_in]]", "[[buffer(", "[[texture(", "[[color(",
		"texture2d<", "texturecube<",
		"#include <metal_stdlib>", "using namespace metal",
	} {
		if strings.Contains(code, marker) {
			return LangMSL
		}
	}
	if containsWordPrefix(code, "SV_") {
		return LangHLSL
	}
	for _, word := range []string{
		"cbuffer", "register",
		"float2", "float3", "float4", "float2x2", "float3x3", "float4x4",
		"half2", "half3", "half4",
		"Texture2D", "TextureCube", "SamplerState",
	} {
		if containsWord(code, word) {
			return LangHLSL
		}
	}
	if strings.Contains(code, "#version") || strings.Contains(code, "void main") {
		return LangGLSL
	}
	if strings.Contains(code, "fn ") && strings.Contains(code, "->") {
		return LangWGSL
	}
	return LangGLSL
}

// containsWord reports whether code contains word delimited by
// non-identifier characters, so `float2 uv` matches but `myfloat2` and
// `float2x2` (when searching for `float2`) do not.
func containsWord(code, word string) bool {
	for from := 0; ; {
		i := strings.Index(code[from:], word)
		if i < 0 {
			return false
		}
		i += from
		before := byte(0)
		if i > 0 {
			before = code[i-1]
		}
		after := byte(0)
		if j := i + len(word); j < len(code) {
			after = code[j]
		}
		if !isWordByte(before) && !isWordByte(after) {
			return true
		}
		from = i + 1
	}
}

// containsWordPrefix reports whether code contains word starting at a
// word boundary, with any continuation allowed (for markers like "SV_"
// that prefix a family of semantics: SV_Target, SV_Position, ... — but a
// GLSL identifier such as `uSV_offset` must not match).
func containsWordPrefix(code, word string) bool {
	for from := 0; ; {
		i := strings.Index(code[from:], word)
		if i < 0 {
			return false
		}
		i += from
		before := byte(0)
		if i > 0 {
			before = code[i-1]
		}
		if !isWordByte(before) {
			return true
		}
		from = i + 1
	}
}

func isWordByte(c byte) bool {
	return c == '_' || c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

// stripComments removes //-line and /* */-block comments (both languages
// share the syntax), replacing them with a space so tokens on either side
// never merge.
func stripComments(src string) string {
	var sb strings.Builder
	sb.Grow(len(src))
	for i := 0; i < len(src); {
		if src[i] == '/' && i+1 < len(src) && src[i+1] == '/' {
			for i < len(src) && src[i] != '\n' {
				i++
			}
			sb.WriteByte(' ')
			continue
		}
		if src[i] == '/' && i+1 < len(src) && src[i+1] == '*' {
			i += 2
			for i+1 < len(src) && !(src[i] == '*' && src[i+1] == '/') {
				i++
			}
			i += 2
			if i > len(src) {
				i = len(src)
			}
			sb.WriteByte(' ')
			continue
		}
		sb.WriteByte(src[i])
		i++
	}
	return sb.String()
}

// Resolve pins LangAuto to a concrete language for the given source.
func (l Lang) Resolve(src string) Lang {
	if l == LangAuto {
		return DetectLang(src)
	}
	return l
}

// lowerLang parses source in the given language (auto-detected when
// LangAuto) and lowers it to the shared IR. The run records a
// per-language "parse <lang>" span and the frontend.parses counters into
// reg; a nil registry records nothing.
func lowerLang(reg *telemetry.Registry, src, name string, lang Lang) (*ir.Program, error) {
	switch lang.Resolve(src) {
	case LangWGSL:
		countParse(reg, LangWGSL)
		span := reg.StartSpan("parse wgsl", "frontend").Arg("shader", name)
		defer span.End()
		prog, err := wgsl.Compile(src, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return prog, nil
	case LangHLSL:
		countParse(reg, LangHLSL)
		span := reg.StartSpan("parse hlsl", "frontend").Arg("shader", name)
		defer span.End()
		prog, err := hlsl.Compile(src, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return prog, nil
	case LangMSL:
		countParse(reg, LangMSL)
		span := reg.StartSpan("parse msl", "frontend").Arg("shader", name)
		defer span.End()
		prog, err := msl.Compile(src, name)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return prog, nil
	default:
		return lowerGLSL(reg, src, name)
	}
}

// ToGLSL returns the desktop-GLSL form of a shader: GLSL input passes
// through untouched (the driver sees the author's original text), while
// WGSL and HLSL input is lowered and regenerated with no optimization
// flags — the faithful all-artefacts baseline, mirroring how a
// WebGPU/D3D-porting runtime hands the driver translated source rather
// than the original. It is a convenience wrapper over Compile for
// one-shot use.
func ToGLSL(src, name string, lang Lang) (string, error) {
	resolved := lang.Resolve(src)
	if resolved == LangGLSL {
		return src, nil
	}
	h, err := Compile(src, name, resolved)
	if err != nil {
		return "", err
	}
	return h.GLSL(), nil
}
