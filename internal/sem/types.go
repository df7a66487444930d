// Package sem implements the GLSL type system and semantic analysis for the
// shader subset: type representation, builtin-function signature
// resolution, constructor checking, and a full AST checker. The lowering
// stage and the vendor driver compilers share these rules.
package sem

import (
	"fmt"
	"strconv"

	"shaderopt/internal/glsl"
)

// Kind is the scalar base kind of a type.
type Kind uint8

// Base kinds.
const (
	KindVoid Kind = iota
	KindBool
	KindInt
	KindFloat
	KindSampler
)

func (k Kind) String() string {
	switch k {
	case KindVoid:
		return "void"
	case KindBool:
		return "bool"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindSampler:
		return "sampler"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Dim is a sampler's dimensionality. The zero value is no dimensionality
// (every non-sampler type).
type Dim uint8

// Sampler dimensionalities.
const (
	DimNone Dim = iota
	Dim2D
	Dim3D
	DimCube
	Dim2DShadow
	Dim2DArray
)

var dimNames = [...]string{
	DimNone: "", Dim2D: "2D", Dim3D: "3D", DimCube: "Cube",
	Dim2DShadow: "2DShadow", Dim2DArray: "2DArray",
}

// String returns the GLSL spelling of the dimensionality, the suffix of
// its sampler type name ("2D" for sampler2D).
func (d Dim) String() string {
	if int(d) < len(dimNames) {
		return dimNames[d]
	}
	return "Dim(" + strconv.Itoa(int(d)) + ")"
}

// Type describes a GLSL value type.
//
//   - scalar:  Vec == 1, Mat == 0
//   - vector:  Vec in 2..4, Mat == 0
//   - matrix:  Kind == KindFloat, Mat in 2..4, Vec == Mat (column height)
//   - sampler: Kind == KindSampler, Dim set
//   - array:   ArrayLen >= 1 wrapping the element described by other fields
//
// Every pass, printer and emitter copies types by value, so the layout is
// kept to 32 bytes (the one-byte Kind and Dim share the first word).
type Type struct {
	Kind     Kind
	Dim      Dim // sampler dimensionality
	Vec      int
	Mat      int
	ArrayLen int // 0 = not an array
}

// Convenient predefined types.
var (
	Void  = Type{Kind: KindVoid, Vec: 1}
	Bool  = Type{Kind: KindBool, Vec: 1}
	Int   = Type{Kind: KindInt, Vec: 1}
	Float = Type{Kind: KindFloat, Vec: 1}
	Vec2  = Type{Kind: KindFloat, Vec: 2}
	Vec3  = Type{Kind: KindFloat, Vec: 3}
	Vec4  = Type{Kind: KindFloat, Vec: 4}
	Mat2  = Type{Kind: KindFloat, Vec: 2, Mat: 2}
	Mat3  = Type{Kind: KindFloat, Vec: 3, Mat: 3}
	Mat4  = Type{Kind: KindFloat, Vec: 4, Mat: 4}
)

// VecType returns the vector (or scalar, n==1) type over base kind k.
func VecType(k Kind, n int) Type { return Type{Kind: k, Vec: n} }

// MatType returns the n×n float matrix type.
func MatType(n int) Type { return Type{Kind: KindFloat, Vec: n, Mat: n} }

// SamplerType returns a sampler type with the given dimensionality.
func SamplerType(dim Dim) Type { return Type{Kind: KindSampler, Vec: 1, Dim: dim} }

// ArrayOf returns the array type of n elements of elem.
func ArrayOf(elem Type, n int) Type {
	elem.ArrayLen = n
	return elem
}

// Elem returns the element type of an array type.
func (t Type) Elem() Type {
	t.ArrayLen = 0
	return t
}

// IsArray reports whether t is an array type.
func (t Type) IsArray() bool { return t.ArrayLen > 0 }

// IsScalar reports whether t is a non-array scalar.
func (t Type) IsScalar() bool {
	return !t.IsArray() && t.Mat == 0 && t.Vec == 1 && t.Kind != KindSampler && t.Kind != KindVoid
}

// IsVector reports whether t is a non-array vector.
func (t Type) IsVector() bool { return !t.IsArray() && t.Mat == 0 && t.Vec >= 2 }

// IsMatrix reports whether t is a non-array matrix.
func (t Type) IsMatrix() bool { return !t.IsArray() && t.Mat >= 2 }

// IsSampler reports whether t is a sampler.
func (t Type) IsSampler() bool { return t.Kind == KindSampler }

// IsFloat reports whether t is float-based (scalar, vector, or matrix).
func (t Type) IsFloat() bool { return t.Kind == KindFloat }

// IsNumeric reports whether t is int- or float-based and not a sampler.
func (t Type) IsNumeric() bool { return t.Kind == KindInt || t.Kind == KindFloat }

// Components returns the number of scalar components (arrays: per element
// count times length).
func (t Type) Components() int {
	n := t.Vec
	if t.Mat >= 2 {
		n = t.Mat * t.Mat
	}
	if t.IsArray() {
		n *= t.ArrayLen
	}
	return n
}

// WithVec returns the same base kind with vector width n.
func (t Type) WithVec(n int) Type { return Type{Kind: t.Kind, Vec: n} }

// ScalarOf returns the scalar type of t's base kind.
func (t Type) ScalarOf() Type { return Type{Kind: t.Kind, Vec: 1} }

// Equal reports exact type equality.
func (t Type) Equal(o Type) bool { return t == o }

// String renders the GLSL name of the type.
func (t Type) String() string {
	switch {
	case t.IsArray():
	case t.Kind == KindVoid:
		return "void"
	case t.Mat < 2 && t.Vec == 1 && t.Kind != KindSampler:
		return t.Kind.String()
	}
	var buf [32]byte
	return string(t.AppendText(buf[:0]))
}

// AppendText appends the GLSL name of the type, as String returns it, to
// b. The IR printers render every instruction's type through it without
// allocating.
func (t Type) AppendText(b []byte) []byte {
	if t.IsArray() {
		b = t.Elem().AppendText(b)
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(t.ArrayLen), 10)
		return append(b, ']')
	}
	switch {
	case t.Kind == KindVoid:
		return append(b, "void"...)
	case t.Kind == KindSampler:
		return append(append(b, "sampler"...), t.Dim.String()...)
	case t.Mat >= 2:
		return strconv.AppendInt(append(b, "mat"...), int64(t.Mat), 10)
	case t.Vec == 1:
		return append(b, t.Kind.String()...)
	default:
		switch t.Kind {
		case KindFloat:
			return strconv.AppendInt(append(b, "vec"...), int64(t.Vec), 10)
		case KindInt:
			return strconv.AppendInt(append(b, "ivec"...), int64(t.Vec), 10)
		case KindBool:
			return strconv.AppendInt(append(b, "bvec"...), int64(t.Vec), 10)
		}
	}
	return fmt.Appendf(b, "Type{%v,%d,%d}", t.Kind, t.Vec, t.Mat)
}

// FromSpec resolves a syntactic type reference to a semantic Type.
func FromSpec(spec glsl.TypeSpec) (Type, error) {
	base, err := fromName(spec.Name)
	if err != nil {
		return Void, err
	}
	if spec.IsArray() {
		if spec.ArrayLen == 0 {
			return Void, fmt.Errorf("unsized array of %s needs an initializer-derived length", spec.Name)
		}
		return ArrayOf(base, spec.ArrayLen), nil
	}
	return base, nil
}

func fromName(name string) (Type, error) {
	switch name {
	case "void":
		return Void, nil
	case "bool":
		return Bool, nil
	case "int", "uint":
		return Int, nil
	case "float":
		return Float, nil
	case "vec2":
		return Vec2, nil
	case "vec3":
		return Vec3, nil
	case "vec4":
		return Vec4, nil
	case "ivec2", "uvec2":
		return VecType(KindInt, 2), nil
	case "ivec3", "uvec3":
		return VecType(KindInt, 3), nil
	case "ivec4", "uvec4":
		return VecType(KindInt, 4), nil
	case "bvec2":
		return VecType(KindBool, 2), nil
	case "bvec3":
		return VecType(KindBool, 3), nil
	case "bvec4":
		return VecType(KindBool, 4), nil
	case "mat2":
		return Mat2, nil
	case "mat3":
		return Mat3, nil
	case "mat4":
		return Mat4, nil
	case "sampler2D":
		return SamplerType(Dim2D), nil
	case "sampler3D":
		return SamplerType(Dim3D), nil
	case "samplerCube":
		return SamplerType(DimCube), nil
	case "sampler2DShadow":
		return SamplerType(Dim2DShadow), nil
	case "sampler2DArray":
		return SamplerType(Dim2DArray), nil
	}
	return Void, fmt.Errorf("unknown type %q", name)
}

// SwizzleIndices resolves a swizzle string like "xyz" or "rgb" against a
// vector of width n, returning the component indices.
func SwizzleIndices(name string, n int) ([]int, error) {
	if len(name) == 0 || len(name) > 4 {
		return nil, fmt.Errorf("bad swizzle %q", name)
	}
	idx := make([]int, len(name))
	for i := 0; i < len(name); i++ {
		var j int
		switch name[i] {
		case 'x', 'r', 's':
			j = 0
		case 'y', 'g', 't':
			j = 1
		case 'z', 'b', 'p':
			j = 2
		case 'w', 'a', 'q':
			j = 3
		default:
			return nil, fmt.Errorf("bad swizzle component %q", string(name[i]))
		}
		if j >= n {
			return nil, fmt.Errorf("swizzle %q out of range for %d components", name, n)
		}
		idx[i] = j
	}
	return idx, nil
}

// BinaryResult types a binary operation, implementing GLSL's implicit
// scalar-to-vector and matrix multiplication rules.
func BinaryResult(op string, x, y Type) (Type, error) {
	if x.IsArray() || y.IsArray() || x.IsSampler() || y.IsSampler() {
		return Void, fmt.Errorf("operator %q not defined on %s and %s", op, x, y)
	}
	switch op {
	case "&&", "||", "^^":
		if x == Bool && y == Bool {
			return Bool, nil
		}
		return Void, fmt.Errorf("logical %q requires bool operands, got %s and %s", op, x, y)
	case "==", "!=":
		if x.Equal(y) && x.Kind != KindVoid {
			return Bool, nil
		}
		return Void, fmt.Errorf("comparison %q requires matching types, got %s and %s", op, x, y)
	case "<", ">", "<=", ">=":
		if x.IsScalar() && y.IsScalar() && x.Kind == y.Kind && x.IsNumeric() {
			return Bool, nil
		}
		return Void, fmt.Errorf("relational %q requires numeric scalars, got %s and %s", op, x, y)
	case "%":
		if x == Int && y == Int {
			return Int, nil
		}
		return Void, fmt.Errorf("%% requires int operands, got %s and %s", x, y)
	case "+", "-", "*", "/":
		return arithResult(op, x, y)
	}
	return Void, fmt.Errorf("unknown operator %q", op)
}

func arithResult(op string, x, y Type) (Type, error) {
	if !x.IsFloat() && x.Kind != KindInt || !y.IsFloat() && y.Kind != KindInt {
		return Void, fmt.Errorf("arithmetic %q on non-numeric %s and %s", op, x, y)
	}
	if x.Kind != y.Kind {
		return Void, fmt.Errorf("mixed-kind arithmetic %s %s %s (the shader subset has no implicit int/float conversion)", x, op, y)
	}
	switch {
	case x.IsMatrix() && y.IsMatrix():
		if x.Mat != y.Mat {
			return Void, fmt.Errorf("matrix size mismatch %s %s %s", x, op, y)
		}
		return x, nil // componentwise for + -, linear-algebraic for * (same type)
	case x.IsMatrix() && y.IsVector():
		if op != "*" || x.Mat != y.Vec {
			return Void, fmt.Errorf("bad matrix-vector operation %s %s %s", x, op, y)
		}
		return y, nil
	case x.IsVector() && y.IsMatrix():
		if op != "*" || y.Mat != x.Vec {
			return Void, fmt.Errorf("bad vector-matrix operation %s %s %s", x, op, y)
		}
		return x, nil
	case x.IsMatrix() && y.IsScalar():
		return x, nil
	case x.IsScalar() && y.IsMatrix():
		return y, nil
	case x.IsVector() && y.IsVector():
		if x.Vec != y.Vec {
			return Void, fmt.Errorf("vector size mismatch %s %s %s", x, op, y)
		}
		return x, nil
	case x.IsVector() && y.IsScalar():
		return x, nil
	case x.IsScalar() && y.IsVector():
		return y, nil
	case x.IsScalar() && y.IsScalar():
		return x, nil
	}
	return Void, fmt.Errorf("unsupported arithmetic %s %s %s", x, op, y)
}
