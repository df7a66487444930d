package wgsl

import (
	"fmt"
	"strings"

	"shaderopt/internal/bind"
	"shaderopt/internal/sem"
)

// resolveType maps a WGSL type reference onto the shared sem type system.
// Both the templated spellings (vec2<f32>, mat3x3<f32>, array<f32, 9>) and
// the predeclared aliases (vec2f, vec4i, mat3x3f) are accepted. f16
// resolves like f32 and u32 like i32 — the IR models one float and one int
// width, matching the GLSL frontend.
func resolveType(te *bind.TypeExpr) (sem.Type, error) {
	if te == nil {
		return sem.Void, fmt.Errorf("missing type")
	}
	switch te.Name {
	case "f32", "f16":
		return sem.Float, nil
	case "i32", "u32":
		return sem.Int, nil
	case "bool":
		return sem.Bool, nil
	case "array":
		if te.Elem == nil {
			return sem.Void, fmt.Errorf("array needs an element type")
		}
		if te.Len < 1 {
			return sem.Void, fmt.Errorf("runtime-sized arrays are outside the supported subset")
		}
		elem, err := resolveType(te.Elem)
		if err != nil {
			return sem.Void, err
		}
		if elem.IsArray() || elem.IsSampler() {
			return sem.Void, fmt.Errorf("array of %s is outside the supported subset", elem)
		}
		return sem.ArrayOf(elem, te.Len), nil
	case "texture_2d":
		return sem.SamplerType(sem.Dim2D), nil
	case "texture_3d":
		return sem.SamplerType(sem.Dim3D), nil
	case "texture_cube":
		return sem.SamplerType(sem.DimCube), nil
	case "texture_depth_2d":
		return sem.SamplerType(sem.Dim2DShadow), nil
	case "texture_2d_array":
		return sem.SamplerType(sem.Dim2DArray), nil
	case "sampler", "sampler_comparison":
		return sem.Void, fmt.Errorf("sampler bindings cannot be used as value types")
	case "vec2", "vec3", "vec4":
		n := int(te.Name[3] - '0')
		kind := sem.KindFloat
		if te.Elem != nil {
			k, err := scalarKind(te.Elem.Name)
			if err != nil {
				return sem.Void, fmt.Errorf("%s: %v", te.Name, err)
			}
			kind = k
		}
		return sem.VecType(kind, n), nil
	}
	// Predeclared aliases: vec2f / vec3i / vec4u / vec2h, mat2x2f, ...
	if n, kind, ok := vecAlias(te.Name); ok {
		return sem.VecType(kind, n), nil
	}
	if n, ok := matAlias(te.Name); ok {
		if te.Elem != nil {
			if _, err := scalarKind(te.Elem.Name); err != nil {
				return sem.Void, fmt.Errorf("%s: %v", te.Name, err)
			}
		}
		return sem.MatType(n), nil
	}
	return sem.Void, fmt.Errorf("unknown type %q", te.String())
}

func scalarKind(name string) (sem.Kind, error) {
	switch name {
	case "f32", "f16":
		return sem.KindFloat, nil
	case "i32", "u32":
		return sem.KindInt, nil
	case "bool":
		return sem.KindBool, nil
	}
	return sem.KindVoid, fmt.Errorf("unsupported element type %q", name)
}

// vecAlias resolves the vecNf / vecNi / vecNu / vecNh predeclared aliases.
func vecAlias(name string) (n int, kind sem.Kind, ok bool) {
	if len(name) != 5 || !strings.HasPrefix(name, "vec") {
		return 0, 0, false
	}
	n = int(name[3] - '0')
	if n < 2 || n > 4 {
		return 0, 0, false
	}
	switch name[4] {
	case 'f', 'h':
		return n, sem.KindFloat, true
	case 'i', 'u':
		return n, sem.KindInt, true
	}
	return 0, 0, false
}

// matAlias resolves matNxM names (with optional f/h suffix) to the square
// dimension; non-square matrices are outside the subset.
func matAlias(name string) (int, bool) {
	base := strings.TrimSuffix(strings.TrimSuffix(name, "f"), "h")
	if len(base) != 6 || !strings.HasPrefix(base, "mat") || base[4] != 'x' {
		return 0, false
	}
	n, m := int(base[3]-'0'), int(base[5]-'0')
	if n < 2 || n > 4 || n != m {
		return 0, false
	}
	return n, true
}
