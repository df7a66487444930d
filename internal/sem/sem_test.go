package sem

import (
	"strings"
	"testing"

	"shaderopt/internal/glsl"
)

func check(t *testing.T, src string) *Info {
	t.Helper()
	sh, err := glsl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info, err := Check(sh)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return info
}

func checkErr(t *testing.T, src, wantSub string) {
	t.Helper()
	sh, err := glsl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = Check(sh)
	if err == nil {
		t.Fatalf("Check succeeded, want error containing %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not contain %q", err, wantSub)
	}
}

func TestTypeStrings(t *testing.T) {
	cases := []struct {
		ty   Type
		want string
	}{
		{Float, "float"}, {Int, "int"}, {Bool, "bool"},
		{Vec3, "vec3"}, {VecType(KindInt, 2), "ivec2"}, {VecType(KindBool, 4), "bvec4"},
		{Mat3, "mat3"}, {SamplerType(Dim2D), "sampler2D"},
		{ArrayOf(Vec2, 9), "vec2[9]"},
	}
	for _, c := range cases {
		if got := c.ty.String(); got != c.want {
			t.Errorf("%#v.String() = %q, want %q", c.ty, got, c.want)
		}
	}
}

func TestTypePredicates(t *testing.T) {
	if !Float.IsScalar() || Float.IsVector() || Float.IsMatrix() {
		t.Error("float predicates")
	}
	if !Vec3.IsVector() || Vec3.IsScalar() {
		t.Error("vec3 predicates")
	}
	if !Mat4.IsMatrix() || Mat4.IsVector() {
		t.Error("mat4 predicates")
	}
	if Mat4.Components() != 16 || Vec3.Components() != 3 || Float.Components() != 1 {
		t.Error("components")
	}
	if ArrayOf(Vec4, 3).Components() != 12 {
		t.Error("array components")
	}
	if !SamplerType(Dim2D).IsSampler() {
		t.Error("sampler predicate")
	}
}

func TestBinaryResultRules(t *testing.T) {
	ok := []struct {
		op   string
		x, y Type
		want Type
	}{
		{"+", Float, Float, Float},
		{"*", Vec4, Float, Vec4},
		{"*", Float, Vec4, Vec4},
		{"*", Mat4, Vec4, Vec4},
		{"*", Vec4, Mat4, Vec4},
		{"*", Mat3, Mat3, Mat3},
		{"*", Mat3, Float, Mat3},
		{"/", Vec2, Vec2, Vec2},
		{"%", Int, Int, Int},
		{"<", Float, Float, Bool},
		{"==", Vec3, Vec3, Bool},
		{"&&", Bool, Bool, Bool},
		{"+", VecType(KindInt, 2), VecType(KindInt, 2), VecType(KindInt, 2)},
	}
	for _, c := range ok {
		got, err := BinaryResult(c.op, c.x, c.y)
		if err != nil || !got.Equal(c.want) {
			t.Errorf("BinaryResult(%q, %s, %s) = %s, %v; want %s", c.op, c.x, c.y, got, err, c.want)
		}
	}
	bad := []struct {
		op   string
		x, y Type
	}{
		{"+", Float, Int},
		{"+", Vec2, Vec3},
		{"*", Mat3, Vec4},
		{"<", Vec2, Vec2},
		{"%", Float, Float},
		{"&&", Int, Int},
		{"+", SamplerType(Dim2D), Float},
	}
	for _, c := range bad {
		if _, err := BinaryResult(c.op, c.x, c.y); err == nil {
			t.Errorf("BinaryResult(%q, %s, %s) succeeded, want error", c.op, c.x, c.y)
		}
	}
}

func TestResolveBuiltins(t *testing.T) {
	cases := []struct {
		name string
		args []Type
		want Type
	}{
		{"dot", []Type{Vec3, Vec3}, Float},
		{"cross", []Type{Vec3, Vec3}, Vec3},
		{"normalize", []Type{Vec3}, Vec3},
		{"mix", []Type{Vec4, Vec4, Float}, Vec4},
		{"mix", []Type{Vec4, Vec4, Vec4}, Vec4},
		{"clamp", []Type{Float, Float, Float}, Float},
		{"clamp", []Type{Vec2, Float, Float}, Vec2},
		{"max", []Type{Vec3, Float}, Vec3},
		{"pow", []Type{Float, Float}, Float},
		{"texture", []Type{SamplerType(Dim2D), Vec2}, Vec4},
		{"texture", []Type{SamplerType(DimCube), Vec3}, Vec4},
		{"textureLod", []Type{SamplerType(Dim2D), Vec2, Float}, Vec4},
		{"step", []Type{Float, Vec3}, Vec3},
		{"length", []Type{Vec2}, Float},
		{"atan", []Type{Float, Float}, Float},
		{"dFdx", []Type{Vec2}, Vec2},
	}
	for _, c := range cases {
		got, err := ResolveBuiltin(c.name, c.args)
		if err != nil || !got.Equal(c.want) {
			t.Errorf("ResolveBuiltin(%s, %v) = %s, %v; want %s", c.name, c.args, got, err, c.want)
		}
	}
	if _, err := ResolveBuiltin("dot", []Type{Vec3, Vec2}); err == nil {
		t.Error("dot with mismatched widths should fail")
	}
	if _, err := ResolveBuiltin("texture", []Type{Vec2, Vec2}); err == nil {
		t.Error("texture without sampler should fail")
	}
	if _, err := ResolveBuiltin("nosuch", nil); err == nil {
		t.Error("unknown builtin should fail")
	}
}

func TestBuiltinClasses(t *testing.T) {
	cases := map[string]BuiltinClass{
		"abs": ClassSimpleALU, "sin": ClassSFU, "dot": ClassDot,
		"texture": ClassTexture, "dFdx": ClassDerivative,
	}
	for name, want := range cases {
		got, ok := BuiltinClassOf(name)
		if !ok || got != want {
			t.Errorf("BuiltinClassOf(%s) = %v, %v", name, got, ok)
		}
	}
}

func TestResolveConstructor(t *testing.T) {
	cases := []struct {
		name string
		args []Type
		want Type
	}{
		{"vec4", []Type{Float}, Vec4},       // splat
		{"vec4", []Type{Vec3, Float}, Vec4}, // concat
		{"vec4", []Type{Float, Float, Float, Float}, Vec4},
		{"vec2", []Type{Int}, Vec2},
		{"float", []Type{Int}, Float},
		{"int", []Type{Float}, Int},
		{"mat3", []Type{Float}, Mat3},      // diagonal
		{"mat2", []Type{Vec2, Vec2}, Mat2}, // columns
		{"mat3", []Type{Mat4}, Mat3},       // resize
		{"vec3", []Type{Vec4}, Vec3},       // truncating single arg
	}
	for _, c := range cases {
		got, err := ResolveConstructor(c.name, c.args)
		if err != nil || !got.Equal(c.want) {
			t.Errorf("ResolveConstructor(%s, %v) = %s, %v; want %s", c.name, c.args, got, err, c.want)
		}
	}
	bad := []struct {
		name string
		args []Type
	}{
		{"vec4", []Type{Vec2}},               // too few components
		{"vec2", []Type{Vec2, Vec2}},         // unused argument
		{"vec4", nil},                        // no args
		{"sampler2D", []Type{Float}},         // not constructible
		{"vec3", []Type{SamplerType(Dim2D)}}, // sampler arg
	}
	for _, c := range bad {
		if _, err := ResolveConstructor(c.name, c.args); err == nil {
			t.Errorf("ResolveConstructor(%s, %v) succeeded, want error", c.name, c.args)
		}
	}
}

func TestSwizzleIndices(t *testing.T) {
	idx, err := SwizzleIndices("xyzw", 4)
	if err != nil || len(idx) != 4 || idx[3] != 3 {
		t.Fatalf("xyzw: %v %v", idx, err)
	}
	idx, err = SwizzleIndices("rgb", 3)
	if err != nil || idx[0] != 0 || idx[2] != 2 {
		t.Fatalf("rgb: %v %v", idx, err)
	}
	if _, err := SwizzleIndices("xyz", 2); err == nil {
		t.Error("out-of-range swizzle should fail")
	}
	if _, err := SwizzleIndices("q", 3); err == nil {
		t.Error("q on vec3 should fail")
	}
	if _, err := SwizzleIndices("xxxxx", 4); err == nil {
		t.Error("too-long swizzle should fail")
	}
}

func TestCheckBasicShader(t *testing.T) {
	info := check(t, `#version 330
uniform sampler2D tex;
uniform vec4 tint;
in vec2 uv;
out vec4 color;
void main() {
    vec4 c = texture(tex, uv) * tint;
    color = c;
}
`)
	if len(info.Uniforms()) != 2 {
		t.Errorf("uniforms = %d", len(info.Uniforms()))
	}
	if len(info.Inputs()) != 1 || len(info.Outputs()) != 1 {
		t.Errorf("inputs/outputs = %d/%d", len(info.Inputs()), len(info.Outputs()))
	}
}

func TestCheckFunctionCalls(t *testing.T) {
	check(t, `
float sq(float x) { return x * x; }
vec3 twice(vec3 v) { return v * 2.0; }
out vec4 c;
void main() { c = vec4(twice(vec3(sq(2.0))), 1.0); }
`)
}

func TestCheckErrors(t *testing.T) {
	cases := []struct {
		src, want string
	}{
		{"out vec4 c;\nvoid main() { c = undefined_var; }", "undefined variable"},
		{"out vec4 c;\nvoid main() { c = 1.0; }", "cannot assign"},
		{"uniform vec4 u;\nvoid main() { u = vec4(1.0); }", "cannot assign to uniform"},
		{"in vec2 uv;\nvoid main() { uv = vec2(0.0); }", "cannot assign to in"},
		{"void main() { float x = 1; }", "cannot initialize"},
		{"void main() { if (1.0) { } }", "if condition"},
		{"void main() { int i = 1 + 1.0; }", "mixed-kind"},
		{"float f() { return; }\nvoid main() {}", "missing return value"},
		{"float f() { return 1; }\nvoid main() {}", "return type"},
		{"void main() { vec2 v; float x = v.z; }", "out of range"},
		{"void f() {}", "no main"},
		{"float main() { return 1.0; }", "void main"},
		{"void main() { foo(1.0); }", "undefined function"},
		{"float f(float x) { return x; }\nvoid main() { f(1.0, 2.0); }", "takes 1 args"},
		{"float f(float x) { return x; }\nvoid main() { f(1); }", "arg 1 has type"},
		{"void main() { vec4 v; v.xx = vec2(1.0); }", "duplicate component"},
		{"void main() { float x = 1.0; -x = 1.0; }", "1:30: expression is not assignable"},
		{"uniform vec4 u;\nuniform vec4 u;\nvoid main() {}", "duplicate global"},
		{"void main() { float a[2] = float[](1.0, 2.0, 3.0); }", "cannot initialize"},
	}
	for _, c := range cases {
		checkErr(t, c.src, c.want)
	}
}

func TestCheckConstArrays(t *testing.T) {
	info := check(t, `
out vec4 c;
void main() {
    const float w[3] = float[](0.1, 0.2, 0.3);
    float s = w[0] + w[1] + w[2];
    c = vec4(s);
}
`)
	_ = info
}

func TestCheckUnsizedGlobalArray(t *testing.T) {
	info := check(t, `
const vec2 offs[] = vec2[](vec2(0.0), vec2(1.0));
out vec4 c;
void main() { c = vec4(offs[0], offs[1]); }
`)
	g := info.Globals["offs"]
	if g == nil || g.Type.ArrayLen != 2 {
		t.Fatalf("offs = %+v", g)
	}
}

func TestCheckControlFlowTypes(t *testing.T) {
	check(t, `
out vec4 c;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 8; i++) {
        if (acc > 4.0) { acc *= 0.5; } else { acc += 1.5; }
    }
    while (acc < 1.0) { acc += 0.25; }
    c = acc > 2.0 ? vec4(acc) : vec4(0.0);
}
`)
}

func TestCheckMatrixOps(t *testing.T) {
	info := check(t, `
uniform mat4 mvp;
uniform mat3 nrm;
in vec3 pos;
out vec4 c;
void main() {
    vec4 p = mvp * vec4(pos, 1.0);
    vec3 n = nrm * pos;
    mat4 m2 = mvp * mvp;
    c = p + vec4(n, 0.0) + m2[0];
}
`)
	_ = info
}

func TestCheckSwizzleChains(t *testing.T) {
	info := check(t, `
in vec4 v;
out vec4 c;
void main() {
    vec2 a = v.xy;
    vec3 b = v.rgb;
    float w = v.wzyx.x;
    c = vec4(a, w, b.z);
}
`)
	_ = info
}

func TestInfoTypeOf(t *testing.T) {
	sh := glsl.MustParse("in vec2 uv;\nout vec4 c;\nvoid main() { c = vec4(uv, 0.0, 1.0); }")
	info, err := Check(sh)
	if err != nil {
		t.Fatal(err)
	}
	as := sh.Func("main").Body.Stmts[0].(*glsl.AssignStmt)
	if got := info.TypeOf(as.RHS); !got.Equal(Vec4) {
		t.Errorf("TypeOf(rhs) = %s", got)
	}
}

func TestFromSpec(t *testing.T) {
	ty, err := FromSpec(glsl.TypeSpec{Name: "vec3", ArrayLen: 5})
	if err != nil || !ty.Equal(ArrayOf(Vec3, 5)) {
		t.Errorf("FromSpec = %s, %v", ty, err)
	}
	if _, err := FromSpec(glsl.Scalar("banana")); err == nil {
		t.Error("unknown type should fail")
	}
	if _, err := FromSpec(glsl.TypeSpec{Name: "float", ArrayLen: 0}); err == nil {
		t.Error("unsized array without init should fail")
	}
}
