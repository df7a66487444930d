package msl

import (
	"fmt"

	"shaderopt/internal/bind"
	"shaderopt/internal/sem"
)

// typeNames records every intrinsic type name the parser resolves
// contextually. As in the HLSL frontend, type names are identifiers, not
// keywords: the parser uses membership to disambiguate C-style
// declarations (`float3 x = ...`) from expression statements.
var typeNames = map[string]bool{}

func init() {
	scalars := []string{"float", "half", "int", "uint", "bool", "void"}
	for _, s := range scalars {
		typeNames[s] = true
	}
	for _, base := range []string{"float", "half", "int", "uint", "bool"} {
		for n := '2'; n <= '4'; n++ {
			typeNames[base+string(n)] = true
		}
	}
	for _, base := range []string{"float", "half"} {
		for n := '2'; n <= '4'; n++ {
			typeNames[fmt.Sprintf("%s%cx%c", base, n, n)] = true
		}
	}
	for _, r := range []string{
		"texture2d", "texture3d", "texturecube", "depth2d",
		"texture2d_array", "sampler", "array",
	} {
		typeNames[r] = true
	}
}

// IsTypeName reports whether s names an intrinsic type in the subset.
func IsTypeName(s string) bool { return typeNames[s] }

// mslBuiltins is the function-name vocabulary the emitter may produce,
// beyond type names — used by the emitter's uniquer so locals never
// shadow an intrinsic spelling.
var mslBuiltins = map[string]bool{
	"abs": true, "acos": true, "asin": true, "atan": true, "atan2": true,
	"ceil": true, "clamp": true, "cos": true, "cross": true,
	"dfdx": true, "dfdy": true, "distance": true, "dot": true,
	"exp": true, "exp2": true, "faceforward": true, "floor": true,
	"fract": true, "fwidth": true, "length": true, "log": true,
	"log2": true, "max": true, "min": true, "mix": true,
	"normalize": true, "pow": true, "reflect": true, "refract": true,
	"rsqrt": true, "saturate": true, "sign": true, "sin": true,
	"smoothstep": true, "sqrt": true, "step": true, "tan": true,
	"discard_fragment": true, "level": true, "bias": true,
	"glsl_mod": true, "glsl_radians": true, "glsl_degrees": true,
}

// reservedWord reports whether name cannot be claimed as an identifier in
// emitted MSL: keywords, type names, and the intrinsic functions the
// emitter may spell.
func reservedWord(name string) bool {
	return IsKeyword(name) || IsTypeName(name) || mslBuiltins[name]
}

// resolveType maps an MSL type reference onto the shared sem type system.
// half resolves like float and uint like int — the IR models one float
// and one int width, matching the other frontends.
func resolveType(te *bind.TypeExpr) (sem.Type, error) {
	if te == nil {
		return sem.Void, fmt.Errorf("missing type")
	}
	switch te.Name {
	case "float", "half":
		return sem.Float, nil
	case "int", "uint":
		return sem.Int, nil
	case "bool":
		return sem.Bool, nil
	case "void":
		return sem.Void, nil
	case "texture2d":
		return sem.SamplerType(sem.Dim2D), nil
	case "texture3d":
		return sem.SamplerType(sem.Dim3D), nil
	case "texturecube":
		return sem.SamplerType(sem.DimCube), nil
	case "depth2d":
		return sem.SamplerType(sem.Dim2DShadow), nil
	case "texture2d_array":
		return sem.SamplerType(sem.Dim2DArray), nil
	case "sampler":
		return sem.Void, fmt.Errorf("sampler state cannot be used as a value type")
	case "array":
		elem, err := resolveType(te.Elem)
		if err != nil {
			return sem.Void, err
		}
		if te.Len <= 0 {
			return sem.Void, fmt.Errorf("array type needs a positive length")
		}
		if elem.IsArray() || elem.IsSampler() {
			return sem.Void, fmt.Errorf("array of %s is outside the supported subset", elem)
		}
		return sem.ArrayOf(elem, te.Len), nil
	}
	if n, kind, ok := bind.VecName(te.Name); ok {
		return sem.VecType(kind, n), nil
	}
	if n, ok := bind.MatName(te.Name); ok {
		return sem.MatType(n), nil
	}
	return sem.Void, fmt.Errorf("unknown type %q", te.String())
}
