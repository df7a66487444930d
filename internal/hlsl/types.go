package hlsl

import (
	"fmt"

	"shaderopt/internal/bind"
	"shaderopt/internal/sem"
)

// typeNames records every intrinsic type name the parser resolves
// contextually, mapped to whether it is a resource type. The parser uses
// membership to disambiguate C-style declarations (`float3 x = ...`) from
// expression statements.
var typeNames = map[string]bool{}

func init() {
	scalars := []string{"float", "half", "double", "int", "uint", "dword", "bool", "void"}
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
		"Texture2D", "Texture3D", "TextureCube", "Texture2DArray",
		"SamplerState", "SamplerComparisonState", "sampler",
	} {
		typeNames[r] = true
	}
}

// IsTypeName reports whether s names an intrinsic type in the subset.
func IsTypeName(s string) bool { return typeNames[s] }

// IsSamplerStateName reports whether a type name declares separate
// sampler state (which collapses into the combined GLSL sampler during
// lowering, as for WGSL's `sampler` bindings).
func IsSamplerStateName(s string) bool {
	return s == "SamplerState" || s == "SamplerComparisonState" || s == "sampler"
}

// resolveType maps an HLSL type reference onto the shared sem type
// system. half resolves like float and uint like int — the IR models one
// float and one int width, matching the other frontends. double also
// resolves to the IR float: the cost models have a single float ALU class.
// An array is a declarator's C-style suffix; Len 0 is an unsized `[]`
// that no brace initializer sized.
func resolveType(te *bind.TypeExpr) (sem.Type, error) {
	if te == nil {
		return sem.Void, fmt.Errorf("missing type")
	}
	switch te.Name {
	case "float", "half", "double":
		return sem.Float, nil
	case "int", "uint", "dword":
		return sem.Int, nil
	case "bool":
		return sem.Bool, nil
	case "Texture2D":
		return sem.SamplerType(sem.Dim2D), nil
	case "Texture3D":
		return sem.SamplerType(sem.Dim3D), nil
	case "TextureCube":
		return sem.SamplerType(sem.DimCube), nil
	case "Texture2DArray":
		return sem.SamplerType(sem.Dim2DArray), nil
	case "SamplerState", "SamplerComparisonState", "sampler":
		return sem.Void, fmt.Errorf("sampler state cannot be used as a value type")
	case "array":
		t, err := resolveType(te.Elem)
		if err != nil {
			return sem.Void, err
		}
		if te.Len == 0 {
			return sem.Void, fmt.Errorf("unsized array needs a brace initializer")
		}
		if t.IsArray() || t.IsSampler() {
			return sem.Void, fmt.Errorf("array of %s is outside the supported subset", t)
		}
		return sem.ArrayOf(t, te.Len), nil
	}
	if n, kind, ok := bind.VecName(te.Name); ok {
		return sem.VecType(kind, n), nil
	}
	if n, ok := bind.MatName(te.Name); ok {
		return sem.MatType(n), nil
	}
	return sem.Void, fmt.Errorf("unknown type %q", te.String())
}
