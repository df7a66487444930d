package msl

import (
	"fmt"

	"shaderopt/internal/glsl"
	"shaderopt/internal/naming"
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
func (tr *translator) resolveType(te *TypeExpr) (sem.Type, error) {
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
		elem, err := tr.resolveType(te.Elem)
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
	if n, kind, ok := vecName(te.Name); ok {
		return sem.VecType(kind, n), nil
	}
	if n, ok := matName(te.Name); ok {
		return sem.MatType(n), nil
	}
	return sem.Void, fmt.Errorf("unknown type %q", te.String())
}

// vecName resolves floatN / halfN / intN / uintN / boolN vector names.
func vecName(name string) (n int, kind sem.Kind, ok bool) {
	base := ""
	switch {
	case len(name) == 6 && name[:5] == "float":
		base, n = "float", int(name[5]-'0')
	case len(name) == 5 && name[:4] == "half":
		base, n = "half", int(name[4]-'0')
	case len(name) == 4 && name[:3] == "int":
		base, n = "int", int(name[3]-'0')
	case len(name) == 5 && name[:4] == "uint":
		base, n = "uint", int(name[4]-'0')
	case len(name) == 5 && name[:4] == "bool":
		base, n = "bool", int(name[4]-'0')
	default:
		return 0, 0, false
	}
	if n < 2 || n > 4 {
		return 0, 0, false
	}
	switch base {
	case "float", "half":
		return n, sem.KindFloat, true
	case "int", "uint":
		return n, sem.KindInt, true
	default:
		return n, sem.KindBool, true
	}
}

// matName resolves floatNxN / halfNxN names to the square dimension;
// non-square matrices are outside the subset.
func matName(name string) (int, bool) {
	var base string
	switch {
	case len(name) == 8 && name[:5] == "float":
		base = name[5:]
	case len(name) == 7 && name[:4] == "half":
		base = name[4:]
	default:
		return 0, false
	}
	if len(base) != 3 || base[1] != 'x' {
		return 0, false
	}
	n, m := int(base[0]-'0'), int(base[2]-'0')
	if n < 2 || n > 4 || n != m {
		return 0, false
	}
	return n, true
}

// semToSpec renders a sem type as a GLSL syntactic type reference for the
// canonical AST (the shared naming.SemToSpec spelling).
func semToSpec(t sem.Type) (glsl.TypeSpec, error) { return naming.SemToSpec(t) }
