package glslgen

import (
	"math"
	"strings"
	"testing"

	"shaderopt/internal/exec"
	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/lower"
	"shaderopt/internal/passes"
)

// roundTrip lowers src, generates GLSL, re-lowers the generated source, and
// checks both programs compute identical outputs under env.
func roundTrip(t *testing.T, src string, env *exec.Env) string {
	t.Helper()
	sh, err := glsl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := lower.Lower(sh, "orig")
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	out := Generate(prog, Desktop)

	sh2, err := glsl.Parse(out)
	if err != nil {
		t.Fatalf("generated source does not parse: %v\n%s", err, out)
	}
	prog2, err := lower.Lower(sh2, "regen")
	if err != nil {
		t.Fatalf("generated source does not lower: %v\n%s", err, out)
	}

	if env == nil {
		env = &exec.Env{}
	}
	r1, err := exec.Run(prog, env)
	if err != nil {
		t.Fatalf("run original: %v", err)
	}
	r2, err := exec.Run(prog2, env)
	if err != nil {
		t.Fatalf("run regenerated: %v\n%s", err, out)
	}
	if r1.Discarded != r2.Discarded {
		t.Fatalf("discard mismatch: %v vs %v", r1.Discarded, r2.Discarded)
	}
	for name, v1 := range r1.Outputs {
		v2 := r2.Outputs[name]
		if v2 == nil {
			t.Fatalf("missing output %q in regenerated shader", name)
		}
		if v1.Len() != v2.Len() {
			t.Fatalf("output %q widths differ", name)
		}
		for i := 0; i < v1.Len(); i++ {
			a, b := v1.Float(i), v2.Float(i)
			if a != b && !(math.IsNaN(a) && math.IsNaN(b)) {
				t.Fatalf("output %q[%d]: %v vs %v\n--- generated ---\n%s", name, i, a, b, out)
			}
		}
	}
	return out
}

func TestRoundTripSimple(t *testing.T) {
	out := roundTrip(t, `
uniform vec4 tint;
in vec2 uv;
out vec4 color;
void main() { color = tint * vec4(uv, 0.5, 1.0); }
`, &exec.Env{
		Uniforms: map[string]*ir.ConstVal{"tint": ir.FloatConst(1, 2, 3, 4)},
		Inputs:   map[string]*ir.ConstVal{"uv": ir.FloatConst(0.25, 0.75)},
	})
	for _, want := range []string{"#version 330", "uniform vec4 tint;", "in vec2 uv;", "out vec4 color;"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRoundTripControlFlow(t *testing.T) {
	roundTrip(t, `
uniform float k;
out vec4 c;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 5; i++) {
        if (float(i) > k) { acc += 2.0; } else { acc += 1.0; }
    }
    c = vec4(acc);
}
`, &exec.Env{Uniforms: map[string]*ir.ConstVal{"k": ir.FloatConst(2.5)}})
}

func TestRoundTripWhile(t *testing.T) {
	out := roundTrip(t, `
out vec4 c;
void main() {
    float s = 1.0;
    while (s < 100.0) { s = s * 3.0; }
    c = vec4(s);
}
`, nil)
	if !strings.Contains(out, "while (") {
		t.Errorf("expected while loop in output:\n%s", out)
	}
}

func TestRoundTripTexture(t *testing.T) {
	roundTrip(t, `
uniform sampler2D tex;
in vec2 uv;
out vec4 c;
void main() { c = texture(tex, uv * 2.0) + textureLod(tex, uv, 1.0); }
`, &exec.Env{
		Inputs:   map[string]*ir.ConstVal{"uv": ir.FloatConst(0.3, 0.4)},
		Samplers: map[string]exec.Sampler{"tex": exec.DefaultSampler{}},
	})
}

func TestRoundTripMatrix(t *testing.T) {
	out := roundTrip(t, `
uniform mat3 m;
in vec3 p;
out vec4 c;
void main() {
    vec3 r = m * p;
    mat3 mm = m * m;
    c = vec4(r + mm[1], 1.0);
}
`, &exec.Env{
		Uniforms: map[string]*ir.ConstVal{"m": ir.FloatConst(1, 2, 3, 4, 5, 6, 7, 8, 9)},
		Inputs:   map[string]*ir.ConstVal{"p": ir.FloatConst(1, 0, -1)},
	})
	// Plain lowering preserves matrix algebra (the driver-efficient form).
	if !strings.Contains(out, "* ") || !strings.Contains(out, "mat3") {
		t.Errorf("expected matrix ops preserved:\n%s", out)
	}

	// The offline pipeline's scalarization artefact expands it to tens of
	// lines (§III-C(a)).
	sh2 := glsl.MustParse(out)
	prog2, err := lower.Lower(sh2, "scal")
	if err != nil {
		t.Fatal(err)
	}
	passes.ScalarizeMatrices(prog2)
	scalOut := Generate(prog2, Desktop)
	if lines := strings.Count(scalOut, "\n"); lines < 40 {
		t.Errorf("expected scalarized matrix code (tens of lines), got %d lines:\n%s", lines, scalOut)
	}
	if strings.Contains(scalOut, "m * ") {
		t.Errorf("matrix multiply survived scalarization:\n%s", scalOut)
	}
}

func TestRoundTripInsertChain(t *testing.T) {
	out := roundTrip(t, `
out vec4 c;
void main() {
    vec4 v = vec4(0.0);
    v.x = 1.0;
    v.y = 2.0;
    v.zw = vec2(3.0, 4.0);
    c = v;
}
`, nil)
	// Element-insert chains must appear as copy+component-store pairs.
	if !strings.Contains(out, ".x = ") || !strings.Contains(out, ".y = ") {
		t.Errorf("expected element insertion statements:\n%s", out)
	}
}

func TestRoundTripDiscard(t *testing.T) {
	roundTrip(t, `
uniform float k;
out vec4 c;
void main() {
    c = vec4(0.5);
    if (k > 0.5) { discard; }
}
`, &exec.Env{Uniforms: map[string]*ir.ConstVal{"k": ir.FloatConst(0.75)}})
}

func TestRoundTripArrays(t *testing.T) {
	roundTrip(t, `
uniform int pick;
out vec4 c;
void main() {
    const float w[4] = float[](0.1, 0.2, 0.3, 0.4);
    c = vec4(w[pick], w[0], w[3], 1.0);
}
`, &exec.Env{Uniforms: map[string]*ir.ConstVal{"pick": ir.IntConst(2)}})
}

func TestRoundTripBlurShader(t *testing.T) {
	src := `#version 330
out vec4 fragColor;
in vec2 uv;
uniform sampler2D tex;
uniform vec4 ambient;
void main() {
    const vec4 weights[9] = vec4[](vec4(0.01), vec4(0.05), vec4(0.14),
        vec4(0.21), vec4(0.61), vec4(0.21), vec4(0.14), vec4(0.05), vec4(0.01));
    const vec2 offsets[9] = vec2[](vec2(-0.0083), vec2(-0.0062), vec2(-0.0042),
        vec2(-0.0021), vec2(0.0), vec2(0.0021), vec2(0.0042), vec2(0.0062), vec2(0.0083));
    float weightTotal = 0.0;
    fragColor = vec4(0.0);
    for (int i = 0; i < 9; i++) {
        weightTotal += weights[i][0];
        fragColor += weights[i] * texture(tex, uv + offsets[i]) * 3.0 * ambient;
    }
    fragColor /= weightTotal;
}
`
	roundTrip(t, src, &exec.Env{
		Uniforms: map[string]*ir.ConstVal{"ambient": ir.FloatConst(0.5, 0.6, 0.7, 1)},
		Inputs:   map[string]*ir.ConstVal{"uv": ir.FloatConst(0.3, 0.7)},
		Samplers: map[string]exec.Sampler{"tex": exec.DefaultSampler{}},
	})
}

func TestGenerateESDialect(t *testing.T) {
	sh := glsl.MustParse(`
uniform sampler2D tex;
in vec2 uv;
out vec4 c;
void main() { c = texture(tex, uv); }
`)
	prog, err := lower.Lower(sh, "es")
	if err != nil {
		t.Fatal(err)
	}
	out := Generate(prog, ES)
	if !strings.HasPrefix(out, "#version 300 es\n") {
		t.Errorf("missing ES version:\n%s", out)
	}
	if !strings.Contains(out, "precision highp float;") {
		t.Errorf("missing precision statement:\n%s", out)
	}
	// ES output must itself parse and lower.
	sh2, err := glsl.Parse(out)
	if err != nil {
		t.Fatalf("ES output does not parse: %v\n%s", err, out)
	}
	if _, err := lower.Lower(sh2, "es2"); err != nil {
		t.Fatalf("ES output does not lower: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	sh := glsl.MustParse(`
uniform float k;
out vec4 c;
void main() {
    float a = k * 2.0;
    float b = a + 1.0;
    c = vec4(a, b, a * b, 1.0);
}
`)
	prog, err := lower.Lower(sh, "det")
	if err != nil {
		t.Fatal(err)
	}
	a := Generate(prog, Desktop)
	b := Generate(prog, Desktop)
	if a != b {
		t.Error("Generate is not deterministic for the same program")
	}
	// A fresh lowering must also generate identical source (stable IDs).
	prog2, err := lower.Lower(sh, "det")
	if err != nil {
		t.Fatal(err)
	}
	c := Generate(prog2, Desktop)
	if a != c {
		t.Errorf("Generate differs across lowerings:\n--- a ---\n%s\n--- c ---\n%s", a, c)
	}
}

func TestGenerateNameCollisions(t *testing.T) {
	// A shader variable colliding with a builtin name must be renamed.
	sh := glsl.MustParse(`
out vec4 c;
void main() {
    float mix = 1.0;
    float texture = 2.0;
    c = vec4(mix + texture);
}
`)
	prog, err := lower.Lower(sh, "collide")
	if err != nil {
		t.Fatal(err)
	}
	out := Generate(prog, Desktop)
	sh2, err := glsl.Parse(out)
	if err != nil {
		t.Fatalf("output does not parse: %v\n%s", err, out)
	}
	if _, err := lower.Lower(sh2, "collide2"); err != nil {
		t.Fatalf("output does not lower: %v\n%s", err, out)
	}
}

func TestGenerateNegativeConstants(t *testing.T) {
	roundTrip(t, `
out vec4 c;
void main() {
    float a = -1.5;
    c = vec4(a - -2.0, -a, a * -3.0, 1.0);
}
`, nil)
}
