package wgsl

import (
	"strings"
	"testing"

	"shaderopt/internal/exec"
	"shaderopt/internal/glsl"
	"shaderopt/internal/glslgen"
	"shaderopt/internal/harness"
	"shaderopt/internal/ir"
	"shaderopt/internal/lower"
	"shaderopt/internal/passes"
	"shaderopt/internal/sem"
)

func compile(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := Compile(src, "test")
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return prog
}

func TestLowerInterface(t *testing.T) {
	prog := compile(t, miniShader)
	if len(prog.Uniforms) != 2 {
		t.Fatalf("uniforms = %d, want tex + tint", len(prog.Uniforms))
	}
	if prog.Uniforms[0].Name != "tex" || !prog.Uniforms[0].Type.IsSampler() {
		t.Errorf("uniform 0 = %s %s", prog.Uniforms[0].Name, prog.Uniforms[0].Type)
	}
	if prog.Uniforms[1].Name != "tint" || !prog.Uniforms[1].Type.Equal(sem.Vec4) {
		t.Errorf("uniform 1 = %s %s", prog.Uniforms[1].Name, prog.Uniforms[1].Type)
	}
	if len(prog.Inputs) != 1 || prog.Inputs[0].Name != "uv" || !prog.Inputs[0].Type.Equal(sem.Vec2) {
		t.Fatalf("inputs = %v", prog.Inputs)
	}
	if len(prog.Outputs) != 1 || prog.Outputs[0].Name != "fragColor" {
		t.Fatalf("outputs = %v", prog.Outputs)
	}
}

func TestLowerCountedLoopSurvives(t *testing.T) {
	// The WGSL for loop must reach the IR as a counted ir.Loop so Unroll
	// fires on WGSL input exactly as on GLSL.
	prog := compile(t, miniShader)
	found := false
	for _, n := range prog.Body.Items {
		if _, ok := n.(*ir.Loop); ok {
			found = true
		}
	}
	if !found {
		t.Fatal("no ir.Loop in lowered body — counted-loop shape lost in translation")
	}
	base := glslgen.Generate(prog, glslgen.Desktop)
	unrolled := prog.Clone()
	passes.Run(unrolled, passes.FlagUnroll|passes.DefaultFlags)
	if out := glslgen.Generate(unrolled, glslgen.Desktop); out == base {
		t.Fatal("unroll did not change WGSL-sourced code")
	}
}

func TestLowerGeneratedGLSLReparses(t *testing.T) {
	// The generated source must survive the mobile conversion path, which
	// re-parses it.
	prog := compile(t, miniShader)
	out := glslgen.Generate(prog, glslgen.Desktop)
	if _, err := glsl.Parse(out); err != nil {
		t.Fatalf("generated GLSL does not re-parse: %v\n%s", err, out)
	}
	if !strings.Contains(out, "uniform sampler2D tex;") {
		t.Errorf("texture binding not collapsed to a combined sampler:\n%s", out)
	}
}

func TestLowerTypeInference(t *testing.T) {
	prog := compile(t, `
var<uniform> scale: f32;
@fragment
fn main(@location(0) uv: vec2<f32>) -> @location(0) vec4<f32> {
    let a = 1.5;                      // f32
    let b = vec3<f32>(uv, a);         // vec3
    let c = b * scale;                // vec3
    let d = dot(c, b);                // f32
    let e = a < d;                    // bool
    var f = 2;                        // i32
    f += 1;
    let w = array<f32, 2>(0.25, 0.75);
    return select(vec4<f32>(w[0]), vec4<f32>(c, d), e);
}`)
	// Inference correctness is proven by the shared checker accepting the
	// translated AST; spot-check the slot types.
	wantTypes := map[string]sem.Type{
		"a": sem.Float, "b": sem.Vec3, "c": sem.Vec3, "d": sem.Float,
		"e": sem.Bool, "f": sem.Int, "w": sem.ArrayOf(sem.Float, 2),
	}
	seen := 0
	for _, v := range prog.Vars {
		if want, ok := wantTypes[v.Name]; ok {
			seen++
			if !v.Type.Equal(want) {
				t.Errorf("%s inferred as %s, want %s", v.Name, v.Type, want)
			}
		}
	}
	if seen != len(wantTypes) {
		t.Errorf("saw %d of %d inferred slots", seen, len(wantTypes))
	}
}

func TestLowerBuiltinRenames(t *testing.T) {
	prog := compile(t, `
@fragment
fn main(@location(0) uv: vec2<f32>) -> @location(0) vec4<f32> {
    let r = inverseSqrt(uv.x) + dpdx(uv.y) + atan2(uv.y, uv.x);
    return vec4<f32>(r);
}`)
	out := glslgen.Generate(prog, glslgen.Desktop)
	for _, want := range []string{"inversesqrt(", "dFdx(", "atan("} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in generated source:\n%s", want, out)
		}
	}
	for _, stale := range []string{"inverseSqrt", "dpdx", "atan2"} {
		if strings.Contains(out, stale) {
			t.Errorf("WGSL spelling %s leaked into generated source", stale)
		}
	}
}

func TestLowerHelperFunctionInlined(t *testing.T) {
	prog := compile(t, miniShader)
	// The shared lowering inlines helpers: the program has a single flat
	// body and the generated source must not contain a luma declaration.
	out := glslgen.Generate(prog, glslgen.Desktop)
	if strings.Contains(out, "float luma") {
		t.Errorf("helper not inlined:\n%s", out)
	}
}

func TestLowerIdentifierSanitization(t *testing.T) {
	// "sample" and "texture" are legal WGSL identifiers but collide with
	// GLSL's keyword/builtin namespace; the translator must rename them.
	prog := compile(t, `
var<uniform> texture: vec4<f32>;
@fragment
fn main(@location(0) uv: vec2<f32>) -> @location(0) vec4<f32> {
    let smooth = texture * uv.x;
    return smooth;
}`)
	out := glslgen.Generate(prog, glslgen.Desktop)
	if _, err := glsl.Parse(out); err != nil {
		t.Fatalf("sanitized source does not re-parse: %v\n%s", err, out)
	}
}

func TestLowerDiscardAndEntryReturn(t *testing.T) {
	prog := compile(t, `
@fragment
fn main(@location(0) uv: vec2<f32>) -> @location(0) vec4<f32> {
    if (uv.x > 0.5) {
        discard;
    }
    return vec4<f32>(uv, 0.0, 1.0);
}`)
	env := harness.DefaultEnv(prog)
	env.Inputs["uv"] = ir.FloatConst(0.75, 0.25)
	res, err := exec.Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Discarded {
		t.Error("fragment at uv.x=0.75 should discard")
	}
	env.Inputs["uv"] = ir.FloatConst(0.25, 0.5)
	res, err = exec.Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if res.Discarded {
		t.Error("fragment at uv.x=0.25 should survive")
	}
	out := res.Outputs["fragColor"]
	if out.Len() != 4 || out.Float(0) != 0.25 || out.Float(1) != 0.5 || out.Float(3) != 1 {
		t.Errorf("output = %v", out)
	}
}

// TestLowerLocalFragColorDoesNotCaptureReturn pins that a function-local
// named fragColor cannot shadow the synthesized out variable: the entry
// return desugars into a store to that variable by name, and a capturing
// local would silently blank the shader's output.
func TestLowerLocalFragColorDoesNotCaptureReturn(t *testing.T) {
	prog := compile(t, `
@fragment
fn main(@location(0) uv: vec2<f32>) -> @location(0) vec4<f32> {
    var fragColor: vec4<f32> = vec4<f32>(uv, 0.25, 1.0);
    return fragColor;
}`)
	env := harness.DefaultEnv(prog)
	env.Inputs[prog.Inputs[0].Name] = ir.FloatConst(0.5, 0.75)
	res, err := exec.Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[prog.Outputs[0].Name]
	want := [4]float64{0.5, 0.75, 0.25, 1}
	for i, w := range want {
		if out.Float(i) != w {
			t.Fatalf("output = [%v %v %v %v], want %v — local fragColor captured the return store",
				out.Float(0), out.Float(1), out.Float(2), out.Float(3), want)
		}
	}
}

// TestLowerMatchesGLSLFrontend is the cross-frontend equivalence check:
// the same shader written in GLSL and WGSL must produce identical
// interpreter results on a grid of fragments.
func TestLowerMatchesGLSLFrontend(t *testing.T) {
	glslSrc := `#version 330
out vec4 fragColor;
in vec2 uv;
uniform sampler2D tex;
uniform vec4 tint;
void main() {
    vec4 c = texture(tex, uv) * tint;
    float l = dot(c.rgb, vec3(0.299, 0.587, 0.114));
    vec3 toned = mix(c.rgb, vec3(l), 0.5);
    fragColor = vec4(toned * sin(l * 3.14159), 1.0);
}
`
	wgslSrc := `
@group(0) @binding(0) var tex: texture_2d<f32>;
@group(0) @binding(1) var samp: sampler;
var<uniform> tint: vec4<f32>;

@fragment
fn main(@location(0) uv: vec2<f32>) -> @location(0) vec4<f32> {
    var c = textureSample(tex, samp, uv) * tint;
    let l = dot(c.rgb, vec3<f32>(0.299, 0.587, 0.114));
    let toned = mix(c.rgb, vec3<f32>(l), 0.5);
    return vec4<f32>(toned * sin(l * 3.14159), 1.0);
}
`
	gsh, err := glsl.Parse(glslSrc)
	if err != nil {
		t.Fatal(err)
	}
	gprog, err := lower.Lower(gsh, "pair-glsl")
	if err != nil {
		t.Fatal(err)
	}
	wprog := compile(t, wgslSrc)

	genv := harness.DefaultEnv(gprog)
	wenv := harness.DefaultEnv(wprog)
	for _, uvpt := range [][2]float64{{0.1, 0.1}, {0.5, 0.25}, {0.9, 0.7}, {0.33, 0.66}} {
		genv.Inputs["uv"] = ir.FloatConst(uvpt[0], uvpt[1])
		wenv.Inputs["uv"] = ir.FloatConst(uvpt[0], uvpt[1])
		gres, err := exec.Run(gprog, genv)
		if err != nil {
			t.Fatal(err)
		}
		wres, err := exec.Run(wprog, wenv)
		if err != nil {
			t.Fatal(err)
		}
		gout, wout := gres.Outputs["fragColor"], wres.Outputs["fragColor"]
		for i := 0; i < 4; i++ {
			if gout.Float(i) != wout.Float(i) {
				t.Errorf("uv=%v component %d: glsl %v != wgsl %v", uvpt, i, gout.Float(i), wout.Float(i))
			}
		}
	}
}

func TestLowerAllFlagCombinationsSucceed(t *testing.T) {
	prog := compile(t, miniShader)
	seen := map[string]bool{}
	for _, flags := range passes.AllCombinations() {
		p := prog.Clone()
		passes.Run(p, flags)
		seen[glslgen.Generate(p, glslgen.Desktop)] = true
	}
	if len(seen) < 2 {
		t.Errorf("only %d unique variants across 256 combinations", len(seen))
	}
}

func TestLowerErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"no entry", `fn helper() -> f32 { return 1.0; }`, "entry point"},
		{"unknown type", `@fragment fn main() -> @location(0) vec4<f32> { var x: q32 = 1.0; return vec4<f32>(0.0); }`, "unknown type"},
		{"undefined ident", `@fragment fn main() -> @location(0) vec4<f32> { return vec4<f32>(nope); }`, "undefined"},
		{"sampler as value", `
var s: sampler;
@fragment fn main() -> @location(0) vec4<f32> { let x = s; return vec4<f32>(0.0); }`, "sampler"},
		{"mixed arithmetic", `@fragment fn main() -> @location(0) vec4<f32> { let x = 1 + 2.0; return vec4<f32>(0.0); }`, "arithmetic"},
		{"bad swizzle", `@fragment fn main(@location(0) uv: vec2<f32>) -> @location(0) vec4<f32> { return vec4<f32>(uv.z); }`, "swizzle"},
		{"undeclared sampler arg", `
var tex: texture_2d<f32>;
@fragment fn main(@location(0) uv: vec2<f32>) -> @location(0) vec4<f32> {
    return textureSample(tex, tex, uv);
}`, "sampler"},
	}
	for _, c := range cases {
		_, err := Compile(c.src, c.name)
		if err == nil {
			t.Errorf("%s: lowered successfully, want error containing %q", c.name, c.want)
			continue
		}
		if !strings.Contains(strings.ToLower(err.Error()), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}
