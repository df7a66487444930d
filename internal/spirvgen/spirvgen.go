// Package spirvgen emits genuine SPIR-V 1.0 binary modules from the
// optimizer IR and decodes them back, closing the second leg of the
// multi-backend loop (GLSL text being the first, MSL text the third). The
// emitted stream uses the real SPIR-V instruction set — standard opcodes,
// GLSL.std.450 extended instructions, structured control flow with
// OpSelectionMerge/OpLoopMerge, and OpName debug instructions so the
// decoder recovers interface names exactly.
//
// Where the IR's semantics do not line up with the SPIR-V spec the emitter
// takes documented liberties rather than inventing opcodes:
//
//   - floats and ints are 64-bit (OpTypeFloat 64 / OpTypeInt 64), matching
//     the interpreter's float64/int64 evaluation exactly; Float64/Int64
//     capabilities are always declared.
//   - componentwise matrix +, -, / reuse the scalar opcodes (OpFAdd &c.)
//     with matrix operand types.
//   - constructors are OpCompositeConstruct even when they convert kinds
//     (GLSL float(i)), where native SPIR-V would use OpConvertSToF.
//   - OpVectorExtractDynamic/InsertDynamic are also used for arrays.
//   - saturate() maps to the private extended-instruction number 1001
//     (GLSL.std.450 stops at 81); real compilers lower it to FClamp.
//   - while-loops carry their interpreter iteration bound as the
//     LoopControl MaxIterations literal (a SPIR-V 1.4 hint emitted in a
//     1.0 module); counted for-loops use LoopControl None, and the
//     decoder uses that bit to tell the two shapes apart.
//   - bool ^^ emits OpLogicalNotEqual and therefore decodes as !=, which
//     is the same function on booleans.
//
// Round-tripping Emit→Decode yields a program that renders bit-identically
// to its source; the backend-differential gate at the repository root
// enforces that corpus-wide.
package spirvgen

import (
	"fmt"

	"shaderopt/internal/sem"
)

// Magic is the SPIR-V magic number.
const Magic = 0x07230203

// Version is SPIR-V 1.0.
const Version = 0x00010000

// Generator is this tool's generator tag ("SHOP" in ASCII, shifted to the
// registered-tool-id half-word as unregistered vendor code).
const Generator = 0x53484F50

// SPIR-V opcodes (the subset this backend speaks).
const (
	opSource                 = 3
	opName                   = 5
	opExtInstImport          = 11
	opExtInst                = 12
	opMemoryModel            = 14
	opEntryPoint             = 15
	opExecutionMode          = 16
	opCapability             = 17
	opTypeVoid               = 19
	opTypeBool               = 20
	opTypeInt                = 21
	opTypeFloat              = 22
	opTypeVector             = 23
	opTypeMatrix             = 24
	opTypeImage              = 25
	opTypeSampledImage       = 27
	opTypeArray              = 28
	opTypePointer            = 32
	opTypeFunction           = 33
	opConstantTrue           = 41
	opConstantFalse          = 42
	opConstant               = 43
	opConstantComposite      = 44
	opFunction               = 54
	opFunctionEnd            = 56
	opVariable               = 59
	opLoad                   = 61
	opStore                  = 62
	opDecorate               = 71
	opVectorExtractDyn       = 77
	opVectorInsertDyn        = 78
	opVectorShuffle          = 79
	opCompositeConstruct     = 80
	opCompositeExtract       = 81
	opCompositeInsert        = 82
	opImageSampleImplicitLod = 87
	opImageSampleExplicitLod = 88
	opImageFetch             = 95
	opImage                  = 100
	opSNegate                = 126
	opFNegate                = 127
	opIAdd                   = 128
	opFAdd                   = 129
	opISub                   = 130
	opFSub                   = 131
	opIMul                   = 132
	opFMul                   = 133
	opSDiv                   = 135
	opFDiv                   = 136
	opSRem                   = 138
	opFMod                   = 141
	opVectorTimesScalar      = 142
	opMatrixTimesScalar      = 143
	opVectorTimesMatrix      = 144
	opMatrixTimesVector      = 145
	opMatrixTimesMatrix      = 146
	opDot                    = 148
	opLogicalEqual           = 164
	opLogicalNotEqual        = 165
	opLogicalOr              = 166
	opLogicalAnd             = 167
	opLogicalNot             = 168
	opSelect                 = 169
	opIEqual                 = 170
	opINotEqual              = 171
	opSGreaterThan           = 173
	opSGreaterThanEqual      = 175
	opSLessThan              = 177
	opSLessThanEqual         = 179
	opFOrdEqual              = 180
	opFUnordNotEqual         = 183
	opFOrdLessThan           = 184
	opFOrdGreaterThan        = 186
	opFOrdLessThanEqual      = 188
	opFOrdGreaterThanEqual   = 190
	opDPdx                   = 207
	opDPdy                   = 208
	opFwidth                 = 209
	opLoopMerge              = 246
	opSelectionMerge         = 247
	opLabel                  = 248
	opBranch                 = 249
	opBranchConditional      = 250
	opKill                   = 252
	opReturn                 = 253
)

// Enumerant values used by the module preamble.
const (
	capShader  = 1
	capFloat64 = 10
	capInt64   = 11

	addressingLogical = 0
	memoryGLSL450     = 1

	execModelFragment       = 4
	execModeOriginUpperLeft = 7

	sourceLangESSL = 1
	sourceLangGLSL = 2

	decorationLocation      = 30
	decorationBinding       = 33
	decorationDescriptorSet = 34

	storageUniformConstant = 0
	storageInput           = 1
	storageOutput          = 3
	storageFunction        = 7

	dim2D   = 1
	dim3D   = 2
	dimCube = 3

	imageOperandBias = 0x1
	imageOperandLod  = 0x2

	loopControlMaxIterations = 0x8
)

// glslStd450 is the extended instruction set name the module imports.
const glslStd450 = "GLSL.std.450"

// extSaturate is the private extended-instruction number used for
// saturate(); GLSL.std.450 proper has no saturate entry.
const extSaturate = 1001

// extInstNames maps GLSL.std.450 instruction numbers to IR builtin names.
// Both S- and F-variants decode to the same GLSL spelling; the subset's
// generic builtins are float-typed, so only the F-variants are emitted.
var extInstNames = map[uint32]string{
	4: "abs", 5: "abs", 6: "sign", 7: "sign", 8: "floor", 9: "ceil",
	10: "fract", 11: "radians", 12: "degrees", 13: "sin", 14: "cos",
	15: "tan", 16: "asin", 17: "acos", 18: "atan", 25: "atan", 26: "pow",
	27: "exp", 28: "log", 29: "exp2", 30: "log2", 31: "sqrt",
	32: "inversesqrt", 37: "min", 39: "min", 40: "max", 42: "max",
	43: "clamp", 45: "clamp", 46: "mix", 48: "step", 49: "smoothstep",
	66: "length", 67: "distance", 68: "cross", 69: "normalize",
	70: "faceforward", 71: "reflect", 72: "refract",
	extSaturate: "saturate",
}

// extInstNums maps IR builtin callees to GLSL.std.450 numbers. atan is
// handled separately (Atan 18 vs Atan2 25 by arity); texture ops, mod,
// dot, and derivatives use core opcodes.
var extInstNums = map[string]uint32{
	"abs": 4, "sign": 6, "floor": 8, "ceil": 9, "fract": 10,
	"radians": 11, "degrees": 12, "sin": 13, "cos": 14, "tan": 15,
	"asin": 16, "acos": 17, "pow": 26, "exp": 27, "log": 28, "exp2": 29,
	"log2": 30, "sqrt": 31, "inversesqrt": 32, "min": 37, "max": 40,
	"clamp": 43, "mix": 46, "step": 48, "smoothstep": 49, "length": 66,
	"distance": 67, "cross": 68, "normalize": 69, "faceforward": 70,
	"reflect": 71, "refract": 72, "saturate": extSaturate,
}

// dimOf maps the IR sampler dimension string to SPIR-V image type
// parameters (dim, depth, arrayed).
func dimOf(d string) (dim, depth, arrayed uint32, err error) {
	switch d {
	case "2D":
		return dim2D, 0, 0, nil
	case "3D":
		return dim3D, 0, 0, nil
	case "Cube":
		return dimCube, 0, 0, nil
	case "2DShadow":
		return dim2D, 1, 0, nil
	case "2DArray":
		return dim2D, 0, 1, nil
	}
	return 0, 0, 0, fmt.Errorf("spirvgen: unsupported sampler dim %q", d)
}

// dimName is the inverse of dimOf.
func dimName(dim, depth, arrayed uint32) (string, error) {
	switch {
	case dim == dim2D && depth == 0 && arrayed == 0:
		return "2D", nil
	case dim == dim3D:
		return "3D", nil
	case dim == dimCube:
		return "Cube", nil
	case dim == dim2D && depth == 1:
		return "2DShadow", nil
	case dim == dim2D && arrayed == 1:
		return "2DArray", nil
	}
	return "", fmt.Errorf("spirvgen: unsupported image shape dim=%d depth=%d arrayed=%d", dim, depth, arrayed)
}

// encodeString packs a string into NUL-terminated little-endian words.
func encodeString(s string) []uint32 {
	b := append([]byte(s), 0)
	for len(b)%4 != 0 {
		b = append(b, 0)
	}
	words := make([]uint32, 0, len(b)/4)
	for i := 0; i < len(b); i += 4 {
		words = append(words, uint32(b[i])|uint32(b[i+1])<<8|uint32(b[i+2])<<16|uint32(b[i+3])<<24)
	}
	return words
}

// decodeString reads a NUL-terminated string from words, returning the
// string and the number of words consumed.
func decodeString(words []uint32) (string, int) {
	var b []byte
	for i, w := range words {
		for s := 0; s < 32; s += 8 {
			c := byte(w >> s)
			if c == 0 {
				return string(b), i + 1
			}
			b = append(b, c)
		}
	}
	return string(b), len(words)
}

// typeKey returns a canonical dedup key for a sem.Type.
func typeKey(t sem.Type) string {
	if t.IsArray() {
		e := t
		e.ArrayLen = 0
		return fmt.Sprintf("arr[%d]%s", t.ArrayLen, typeKey(e))
	}
	switch {
	case t.Kind == sem.KindVoid:
		return "void"
	case t.IsSampler():
		return "samp:" + t.Dim
	case t.IsMatrix():
		return fmt.Sprintf("mat%d", t.Mat)
	case t.Vec > 1:
		return fmt.Sprintf("vec%d:%s", t.Vec, t.Kind.String())
	default:
		return t.Kind.String()
	}
}
