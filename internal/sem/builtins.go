package sem

import "fmt"

// BuiltinClass groups builtins by the execution resource they use; the GPU
// cost models key off this.
type BuiltinClass int

// Builtin classes.
const (
	ClassSimpleALU  BuiltinClass = iota // abs, min, max, clamp, mix, ...
	ClassSFU                            // transcendental: sin, exp, pow, ...
	ClassDot                            // dot/length/distance style reductions
	ClassTexture                        // texture sampling
	ClassDerivative                     // dFdx/dFdy/fwidth
)

// Builtin describes a resolvable builtin function.
type Builtin struct {
	Name  string
	Class BuiltinClass
}

// genF matches float scalars and vectors; the first genF argument fixes the
// width, later genF arguments must match it, and fOrGen arguments may be
// float scalars regardless of the fixed width.
type sigRule struct {
	class  BuiltinClass
	params []paramRule
	result resultRule
}

type paramRule int

const (
	pGenF   paramRule = iota // float or vecN, must match fixed width
	pFloat                   // float scalar exactly
	pFOrGen                  // float scalar or the fixed genF width
	pVec3                    // vec3 exactly
	pSamp2D                  // sampler2D / sampler2DArray / sampler2DShadow
	pSampCube
	pSampAny
	pVec2
	pGenI // int or ivecN matching width
)

type resultRule int

const (
	rGen resultRule = iota
	rFloat
	rVec4
	rBool
	rVec3
	rGenI
)

var builtinSigs = map[string][]sigRule{
	// Componentwise simple ALU.
	"abs":         {{ClassSimpleALU, []paramRule{pGenF}, rGen}},
	"sign":        {{ClassSimpleALU, []paramRule{pGenF}, rGen}},
	"floor":       {{ClassSimpleALU, []paramRule{pGenF}, rGen}},
	"ceil":        {{ClassSimpleALU, []paramRule{pGenF}, rGen}},
	"fract":       {{ClassSimpleALU, []paramRule{pGenF}, rGen}},
	"radians":     {{ClassSimpleALU, []paramRule{pGenF}, rGen}},
	"degrees":     {{ClassSimpleALU, []paramRule{pGenF}, rGen}},
	"saturate":    {{ClassSimpleALU, []paramRule{pGenF}, rGen}},
	"mod":         {{ClassSimpleALU, []paramRule{pGenF, pFOrGen}, rGen}},
	"min":         {{ClassSimpleALU, []paramRule{pGenF, pFOrGen}, rGen}},
	"max":         {{ClassSimpleALU, []paramRule{pGenF, pFOrGen}, rGen}},
	"step":        {{ClassSimpleALU, []paramRule{pFOrGen, pGenF}, rGen}},
	"clamp":       {{ClassSimpleALU, []paramRule{pGenF, pFOrGen, pFOrGen}, rGen}},
	"mix":         {{ClassSimpleALU, []paramRule{pGenF, pGenF, pFOrGen}, rGen}},
	"smoothstep":  {{ClassSimpleALU, []paramRule{pFOrGen, pFOrGen, pGenF}, rGen}},
	"reflect":     {{ClassSimpleALU, []paramRule{pGenF, pGenF}, rGen}},
	"refract":     {{ClassSFU, []paramRule{pGenF, pGenF, pFloat}, rGen}},
	"normalize":   {{ClassSFU, []paramRule{pGenF}, rGen}},
	"faceforward": {{ClassSimpleALU, []paramRule{pGenF, pGenF, pGenF}, rGen}},

	// Transcendentals (special function unit).
	"sin":         {{ClassSFU, []paramRule{pGenF}, rGen}},
	"cos":         {{ClassSFU, []paramRule{pGenF}, rGen}},
	"tan":         {{ClassSFU, []paramRule{pGenF}, rGen}},
	"asin":        {{ClassSFU, []paramRule{pGenF}, rGen}},
	"acos":        {{ClassSFU, []paramRule{pGenF}, rGen}},
	"atan":        {{ClassSFU, []paramRule{pGenF}, rGen}, {ClassSFU, []paramRule{pGenF, pGenF}, rGen}},
	"pow":         {{ClassSFU, []paramRule{pGenF, pGenF}, rGen}},
	"exp":         {{ClassSFU, []paramRule{pGenF}, rGen}},
	"log":         {{ClassSFU, []paramRule{pGenF}, rGen}},
	"exp2":        {{ClassSFU, []paramRule{pGenF}, rGen}},
	"log2":        {{ClassSFU, []paramRule{pGenF}, rGen}},
	"sqrt":        {{ClassSFU, []paramRule{pGenF}, rGen}},
	"inversesqrt": {{ClassSFU, []paramRule{pGenF}, rGen}},

	// Geometric reductions.
	"dot":      {{ClassDot, []paramRule{pGenF, pGenF}, rFloat}},
	"length":   {{ClassDot, []paramRule{pGenF}, rFloat}},
	"distance": {{ClassDot, []paramRule{pGenF, pGenF}, rFloat}},
	"cross":    {{ClassDot, []paramRule{pVec3, pVec3}, rVec3}},

	// Texturing.
	"texture": {
		{ClassTexture, []paramRule{pSamp2D, pVec2}, rVec4},
		{ClassTexture, []paramRule{pSampCube, pVec3}, rVec4},
		{ClassTexture, []paramRule{pSamp2D, pVec2, pFloat}, rVec4},
	},
	"texture2D":   {{ClassTexture, []paramRule{pSamp2D, pVec2}, rVec4}},
	"textureCube": {{ClassTexture, []paramRule{pSampCube, pVec3}, rVec4}},
	"textureLod": {
		{ClassTexture, []paramRule{pSamp2D, pVec2, pFloat}, rVec4},
		{ClassTexture, []paramRule{pSampCube, pVec3, pFloat}, rVec4},
	},
	"texelFetch": {{ClassTexture, []paramRule{pSamp2D, pGenI, pGenI}, rVec4}},

	// Derivatives.
	"dFdx":   {{ClassDerivative, []paramRule{pGenF}, rGen}},
	"dFdy":   {{ClassDerivative, []paramRule{pGenF}, rGen}},
	"fwidth": {{ClassDerivative, []paramRule{pGenF}, rGen}},
}

// IsBuiltin reports whether name is a known builtin function (not a
// constructor).
func IsBuiltin(name string) bool {
	_, ok := builtinSigs[name]
	return ok
}

// BuiltinClassOf returns the resource class of a builtin.
func BuiltinClassOf(name string) (BuiltinClass, bool) {
	sigs, ok := builtinSigs[name]
	if !ok {
		return 0, false
	}
	return sigs[0].class, true
}

// ResolveBuiltin types a builtin call. It returns the result type.
func ResolveBuiltin(name string, args []Type) (Type, error) {
	sigs, ok := builtinSigs[name]
	if !ok {
		return Void, fmt.Errorf("unknown builtin %q", name)
	}
	var firstErr error
	for _, sig := range sigs {
		res, err := matchSig(sig, args)
		if err == nil {
			return res, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return Void, fmt.Errorf("%s: %v", name, firstErr)
}

func matchSig(sig sigRule, args []Type) (Type, error) {
	if len(args) != len(sig.params) {
		return Void, fmt.Errorf("want %d args, got %d", len(sig.params), len(args))
	}
	width := 0  // fixed genF width
	iwidth := 0 // fixed genI width
	for i, pr := range sig.params {
		a := args[i]
		switch pr {
		case pGenF:
			if a.Kind != KindFloat || a.IsMatrix() || a.IsArray() {
				return Void, fmt.Errorf("arg %d: want float/vec, got %s", i+1, a)
			}
			if width == 0 {
				width = a.Vec
			} else if a.Vec != width {
				return Void, fmt.Errorf("arg %d: width %d does not match %d", i+1, a.Vec, width)
			}
		case pFloat:
			if !a.Equal(Float) {
				return Void, fmt.Errorf("arg %d: want float, got %s", i+1, a)
			}
		case pFOrGen:
			if a.Kind != KindFloat || a.IsMatrix() || a.IsArray() {
				return Void, fmt.Errorf("arg %d: want float/vec, got %s", i+1, a)
			}
			if a.Vec != 1 {
				if width == 0 {
					width = a.Vec
				} else if a.Vec != width {
					return Void, fmt.Errorf("arg %d: width %d does not match %d", i+1, a.Vec, width)
				}
			}
		case pVec2:
			if !a.Equal(Vec2) {
				return Void, fmt.Errorf("arg %d: want vec2, got %s", i+1, a)
			}
		case pVec3:
			if !a.Equal(Vec3) {
				return Void, fmt.Errorf("arg %d: want vec3, got %s", i+1, a)
			}
		case pSamp2D:
			if !a.IsSampler() || (a.Dim != Dim2D && a.Dim != Dim2DArray && a.Dim != Dim2DShadow && a.Dim != Dim3D) {
				return Void, fmt.Errorf("arg %d: want sampler2D, got %s", i+1, a)
			}
		case pSampCube:
			if !a.IsSampler() || a.Dim != DimCube {
				return Void, fmt.Errorf("arg %d: want samplerCube, got %s", i+1, a)
			}
		case pSampAny:
			if !a.IsSampler() {
				return Void, fmt.Errorf("arg %d: want sampler, got %s", i+1, a)
			}
		case pGenI:
			if a.Kind != KindInt || a.IsArray() {
				return Void, fmt.Errorf("arg %d: want int/ivec, got %s", i+1, a)
			}
			if iwidth == 0 {
				iwidth = a.Vec
			} else if a.Vec != iwidth {
				return Void, fmt.Errorf("arg %d: int width mismatch", i+1)
			}
		}
	}
	if width == 0 {
		width = 1
	}
	switch sig.result {
	case rGen:
		return VecType(KindFloat, width), nil
	case rFloat:
		return Float, nil
	case rVec4:
		return Vec4, nil
	case rVec3:
		return Vec3, nil
	case rBool:
		return Bool, nil
	case rGenI:
		return VecType(KindInt, max(iwidth, 1)), nil
	}
	return Void, fmt.Errorf("unhandled result rule")
}

// IsConstructor reports whether name is a type constructor.
func IsConstructor(name string) bool {
	_, err := fromName(name)
	return err == nil && name != "void"
}

// ResolveConstructor types a constructor call such as vec4(...), float(x),
// or mat3(...). GLSL constructor rules: a single scalar splats vectors and
// fills the matrix diagonal; otherwise the arguments' components are
// consumed in order and must cover the constructed type exactly.
func ResolveConstructor(name string, args []Type) (Type, error) {
	target, err := fromName(name)
	if err != nil {
		return Void, err
	}
	if target.Kind == KindVoid || target.IsSampler() {
		return Void, fmt.Errorf("cannot construct %s", name)
	}
	if len(args) == 0 {
		return Void, fmt.Errorf("%s constructor needs arguments", name)
	}
	for i, a := range args {
		if a.IsSampler() || a.IsArray() || a.Kind == KindVoid {
			return Void, fmt.Errorf("%s constructor arg %d has type %s", name, i+1, a)
		}
	}
	// Single-scalar: conversion, splat, or diagonal fill.
	if len(args) == 1 && args[0].IsScalar() {
		return target, nil
	}
	// Single-matrix to matrix conversion (mat3(mat4) style) — supported as
	// resize.
	if len(args) == 1 && args[0].IsMatrix() && target.IsMatrix() {
		return target, nil
	}
	total := 0
	for _, a := range args {
		total += a.Components()
	}
	if total < target.Components() {
		return Void, fmt.Errorf("%s constructor has %d components, needs %d", name, total, target.Components())
	}
	// GLSL allows extra components only if the final argument overflows; we
	// accept exact or overflow-by-last-arg like real compilers.
	last := args[len(args)-1].Components()
	if total-last >= target.Components() {
		return Void, fmt.Errorf("%s constructor has unused arguments (%d components for %d)", name, total, target.Components())
	}
	return target, nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
