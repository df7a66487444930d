package msl_test

import (
	"strings"
	"testing"

	"shaderopt/internal/exec"
	"shaderopt/internal/glsl"
	"shaderopt/internal/harness"
	"shaderopt/internal/ir"
	"shaderopt/internal/lower"
	"shaderopt/internal/msl"
	"shaderopt/internal/sem"
)

// render interprets a program over an 8×8 grid with harness-default
// uniforms, uv varying across the image.
func render(t *testing.T, p *ir.Program) [][4]float64 {
	t.Helper()
	env := harness.DefaultEnv(p)
	var img [][4]float64
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			u := (float64(x) + 0.5) / 8
			v := (float64(y) + 0.5) / 8
			for _, in := range p.Inputs {
				if in.Type.Equal(sem.Vec2) {
					env.Inputs[in.Name] = ir.FloatConst(u, v)
				}
			}
			res, err := exec.Run(p, env)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			var px [4]float64
			if !res.Discarded {
				for _, out := range p.Outputs {
					val := res.Outputs[out.Name]
					for i := 0; i < val.Len() && i < 4; i++ {
						px[i] = val.Float(i)
					}
					break
				}
			}
			img = append(img, px)
		}
	}
	return img
}

// roundTrip lowers GLSL source, emits MSL, re-parses the MSL through the
// frontend, and requires the two programs to render bit-identically.
func roundTrip(t *testing.T, src, name string) string {
	t.Helper()
	prog, err := lower.Lower(glsl.MustParse(src), name)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	text, err := msl.Emit(prog)
	if err != nil {
		t.Fatalf("emit: %v", err)
	}
	back, err := msl.Compile(text, name+"-rt")
	if err != nil {
		t.Fatalf("re-parse emitted MSL: %v\n%s", err, text)
	}
	a, b := render(t, prog), render(t, back)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("pixel %d diverges: %v vs %v\n%s", i, a[i], b[i], text)
		}
	}
	return text
}

func TestRoundTripTextureLoop(t *testing.T) {
	text := roundTrip(t, `#version 330
uniform sampler2D tex;
uniform vec4 tint;
uniform float gain;
in vec2 uv;
out vec4 color;
void main() {
    vec4 acc = vec4(0.0);
    for (int i = 0; i < 4; i++) {
        acc += texture(tex, uv + vec2(float(i) * 0.01, 0.0));
    }
    if (gain > 0.5) { acc *= gain; }
    color = acc * tint / 4.0;
}
`, "texloop")
	for _, want := range []string{
		"#include <metal_stdlib>",
		"using namespace metal;",
		"[[stage_in]]",
		"[[texture(0)]]",
		"[[sampler(0)]]",
		"constant ",
		"fragment float4 main0(",
		".sample(",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("emitted MSL missing %q:\n%s", want, text)
		}
	}
}

func TestRoundTripMatrixAlgebra(t *testing.T) {
	roundTrip(t, `#version 330
uniform mat3 rot;
uniform vec3 axis;
in vec2 uv;
out vec4 color;
void main() {
    mat3 m = rot * mat3(vec3(1.0, 0.0, 0.0), vec3(0.0, 1.0, 0.0), axis);
    vec3 p = m * vec3(uv, 1.0);
    mat3 s = mat3(2.0 * p.x, 0.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 2.0);
    color = vec4(s * p, 1.0);
}
`, "matalg")
}

func TestRoundTripArraysAndWhile(t *testing.T) {
	roundTrip(t, `#version 330
uniform float k;
in vec2 uv;
out vec4 color;
void main() {
    float wts[5] = float[](0.1, 0.2, 0.4, 0.2, 0.1);
    float s = 0.0;
    for (int i = 0; i < 5; i++) { s += wts[i] * uv.x; }
    float g = 1.0;
    while (g < k + s) { g = g * 2.0 + 0.125; }
    color = vec4(s, g, mod(g, 0.7), 1.0);
}
`, "arrwhile")
}

func TestRoundTripCubeDiscardSelect(t *testing.T) {
	roundTrip(t, `#version 330
uniform samplerCube sky;
uniform float cut;
in vec2 uv;
out vec4 color;
void main() {
    vec3 dir = normalize(vec3(uv * 2.0 - 1.0, 1.0));
    vec4 c = texture(sky, dir);
    if (c.r < cut * 0.1) { discard; }
    float m = c.g > 0.5 ? radians(c.g) : degrees(c.b) * 0.001;
    color = vec4(c.rgb, m);
}
`, "cube")
}

func TestRoundTripLodFetchBuiltins(t *testing.T) {
	roundTrip(t, `#version 330
uniform sampler2D tex;
in vec2 uv;
out vec4 color;
void main() {
    vec4 a = textureLod(tex, uv, 2.0);
    vec4 b = texelFetch(tex, ivec2(int(uv.x * 8.0), int(uv.y * 8.0)), ivec2(0));
    vec4 c = texture(tex, uv, 0.5);
    color = (a + b + c) * inversesqrt(2.0 + uv.x);
}
`, "lodfetch")
}

func TestRoundTripMultiOutput(t *testing.T) {
	text := roundTrip(t, `#version 330
uniform float gain;
in vec2 uv;
out vec4 albedo;
out vec4 bright;
void main() {
    albedo = vec4(uv, 0.5, 1.0);
    bright = vec4(uv.x * gain);
}
`, "mrt")
	for _, want := range []string{"[[color(0)]]", "[[color(1)]]", "struct main0_out"} {
		if !strings.Contains(text, want) {
			t.Errorf("emitted MSL missing %q:\n%s", want, text)
		}
	}
}

func TestRoundTripIntBoolOps(t *testing.T) {
	roundTrip(t, `#version 330
uniform int n;
in vec2 uv;
out vec4 color;
void main() {
    int acc = 0;
    for (int i = 0; i < n + 7; i++) { acc += i % 3; }
    bool a = uv.x > 0.5;
    bool b = uv.y > 0.5;
    float f = (a ^^ b) ? float(acc) * 0.01 : fract(uv.x * 7.0);
    color = vec4(f, clamp(f, 0.0, 1.0), step(0.3, f), 1.0);
}
`, "intbool")
}

// TestEmitReservedNameCollision exercises the uniquer: IR names that
// collide with MSL spellings must move aside without breaking the round
// trip.
func TestEmitReservedNameCollision(t *testing.T) {
	text := roundTrip(t, `#version 330
uniform float fragment;
uniform vec2 in0;
in vec2 uv;
out vec4 color;
void main() {
    vec2 device = uv * fragment + in0;
    color = vec4(device, 0.0, 1.0);
}
`, "reserved")
	if strings.Contains(text, "float fragment;") {
		t.Errorf("reserved word leaked as member name:\n%s", text)
	}
}

// TestFrontendRejectsOutsideSubset pins a few diagnostics.
func TestFrontendRejectsOutsideSubset(t *testing.T) {
	cases := []struct{ name, src string }{
		{"no-entry", `static float f() { return 1.0; }`},
		{"vertex", `vertex float4 main0() { return float4(0.0); }`},
		{"bad-sampler", `
fragment float4 main0(texture2d<float> tex [[texture(0)]])
{
    return tex.sample(tex, float2(0.5));
}`},
		{"undefined", `fragment float4 main0() { return float4(nope); }`},
		{"attribute past int", `struct U { float4 tint; };
fragment float4 main0(constant U& u [[buffer(99999999999999999999)]]) { return u.tint; }`},
	}
	for _, tc := range cases {
		if _, err := msl.Compile(tc.src, tc.name); err == nil {
			t.Errorf("%s: want error, got none", tc.name)
		}
	}
}

// TestHelperPreludeOnlyWhenUsed verifies glsl_ helpers appear exactly
// when the body calls the corresponding builtin.
func TestHelperPreludeOnlyWhenUsed(t *testing.T) {
	with := roundTrip(t, `#version 330
in vec2 uv;
out vec4 color;
void main() { color = vec4(mod(uv.x, 0.3)); }
`, "withmod")
	if !strings.Contains(with, "glsl_mod") {
		t.Errorf("glsl_mod helper missing:\n%s", with)
	}
	without := roundTrip(t, `#version 330
in vec2 uv;
out vec4 color;
void main() { color = vec4(uv, 0.0, 1.0); }
`, "nomod")
	if strings.Contains(without, "glsl_mod") {
		t.Errorf("unused glsl_mod helper emitted:\n%s", without)
	}
}

// TestEmitSameNamedLocalsLinear pins that the emitter names n same-named
// locals in O(n): allocations for 4n locals stay within ~4.5x of those
// for n (a namer that restarts every search at x_2 allocates ~16x), and
// the names are still x, x_2, …, x_4n.
func TestEmitSameNamedLocalsLinear(t *testing.T) {
	locals := func(n int) *ir.Program {
		p := ir.NewProgram("locals")
		for i := 0; i < n; i++ {
			p.Vars = append(p.Vars, &ir.Var{Name: "x", Type: sem.Float})
		}
		return p
	}
	const n = 400
	small, large := locals(n), locals(4*n)
	emit := func(p *ir.Program) string {
		out, err := msl.Emit(p)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a := testing.AllocsPerRun(5, func() { emit(small) })
	b := testing.AllocsPerRun(5, func() { emit(large) })
	t.Logf("allocs: %d locals %.0f, %d locals %.0f (%.2fx)", n, a, 4*n, b, b/a)
	if b > 4.5*a {
		t.Fatalf("allocs for %d locals = %.0f, for %d = %.0f: %.1fx, want <= 4.5x", n, a, 4*n, b, b/a)
	}
	out := emit(large)
	if !strings.Contains(out, "float x;") || !strings.Contains(out, "float x_1600;") || strings.Contains(out, "x_1601") {
		t.Fatalf("names are not x, x_2, ..., x_1600:\n%s", out)
	}
}
