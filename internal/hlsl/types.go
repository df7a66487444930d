package hlsl

import (
	"fmt"

	"shaderopt/internal/glsl"
	"shaderopt/internal/naming"
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
func (tr *translator) resolveType(te *TypeExpr) (sem.Type, error) {
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
	}
	if n, kind, ok := vecName(te.Name); ok {
		return sem.VecType(kind, n), nil
	}
	if n, ok := matName(te.Name); ok {
		return sem.MatType(n), nil
	}
	return sem.Void, fmt.Errorf("unknown type %q", te.String())
}

// resolveDeclType resolves a declarator's full type including a C-style
// array suffix (arrayLen -1 means not an array; 0 means sized by the
// initializer, resolved by the caller).
func (tr *translator) resolveDeclType(te *TypeExpr, arrayLen int) (sem.Type, error) {
	t, err := tr.resolveType(te)
	if err != nil {
		return sem.Void, err
	}
	if arrayLen < 0 {
		return t, nil
	}
	if arrayLen == 0 {
		return sem.Void, fmt.Errorf("unsized array needs a brace initializer")
	}
	if t.IsArray() || t.IsSampler() {
		return sem.Void, fmt.Errorf("array of %s is outside the supported subset", t)
	}
	return sem.ArrayOf(t, arrayLen), nil
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

// matName resolves floatNxM / halfNxM names to the square dimension;
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
