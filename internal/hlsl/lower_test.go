package hlsl

import (
	"math"
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
	if len(prog.Uniforms) != 3 {
		t.Fatalf("uniforms = %d, want tex + tint + strength", len(prog.Uniforms))
	}
	if prog.Uniforms[0].Name != "tex" || !prog.Uniforms[0].Type.IsSampler() {
		t.Errorf("uniform 0 = %s %s", prog.Uniforms[0].Name, prog.Uniforms[0].Type)
	}
	if prog.Uniforms[1].Name != "tint" || !prog.Uniforms[1].Type.Equal(sem.Vec4) {
		t.Errorf("uniform 1 = %s %s", prog.Uniforms[1].Name, prog.Uniforms[1].Type)
	}
	if prog.Uniforms[2].Name != "strength" || !prog.Uniforms[2].Type.Equal(sem.Float) {
		t.Errorf("uniform 2 = %s %s", prog.Uniforms[2].Name, prog.Uniforms[2].Type)
	}
	if len(prog.Inputs) != 1 || prog.Inputs[0].Name != "uv" || !prog.Inputs[0].Type.Equal(sem.Vec2) {
		t.Fatalf("inputs = %v", prog.Inputs)
	}
	if len(prog.Outputs) != 1 || prog.Outputs[0].Name != "fragColor" {
		t.Fatalf("outputs = %v", prog.Outputs)
	}
}

func TestLowerCountedLoopSurvives(t *testing.T) {
	// The HLSL for loop must reach the IR as a counted ir.Loop so Unroll
	// fires on HLSL input exactly as on GLSL and WGSL.
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
		t.Fatal("unroll did not change HLSL-sourced code")
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
	if strings.Contains(out, "SamplerState") || strings.Contains(out, "smp") {
		t.Errorf("sampler state leaked into generated source:\n%s", out)
	}
}

func TestLowerIntrinsicRenames(t *testing.T) {
	prog := compile(t, `
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    float r = rsqrt(uv.x) + ddx(uv.y) + atan2(uv.y, uv.x) + frac(uv.x);
    float3 l = lerp(float3(r, r, r), float3(0.0, 0.0, 0.0), 0.5);
    return float4(l, 1.0);
}`)
	out := glslgen.Generate(prog, glslgen.Desktop)
	for _, want := range []string{"inversesqrt(", "dFdx(", "atan(", "fract(", "mix("} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %s in generated source:\n%s", want, out)
		}
	}
	for _, stale := range []string{"rsqrt", "ddx", "atan2", "frac(", "lerp"} {
		if strings.Contains(out, stale) {
			t.Errorf("HLSL spelling %s leaked into generated source", stale)
		}
	}
}

// TestLowerFmodTruncSemantics pins the fmod desugaring to HLSL's
// trunc-based definition: fmod(-0.3, 1.0) is -0.3 (the result keeps x's
// sign), where GLSL's floor-based mod would give 0.7. A rename to mod
// would pass every structural test and silently render wrong values —
// this is the behavioural pin.
func TestLowerFmodTruncSemantics(t *testing.T) {
	prog := compile(t, `
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    float m = fmod(uv.x - 0.5, 1.0);
    return float4(m, 0.0, 0.0, 1.0);
}`)
	env := harness.DefaultEnv(prog)
	cases := []struct{ x, want float64 }{
		{0.2, -0.3}, // negative operand: trunc keeps the sign
		{0.7, 0.2},  // positive operand: trunc and floor agree
		{1.9, 0.4},  // 1.4 mod 1.0
	}
	for _, c := range cases {
		env.Inputs["uv"] = ir.FloatConst(c.x, 0.0)
		res, err := exec.Run(prog, env)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Outputs["fragColor"].Float(0)
		if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("fmod(%v - 0.5, 1.0) = %v, want %v", c.x, got, c.want)
		}
	}
	out := glslgen.Generate(prog, glslgen.Desktop)
	if strings.Contains(out, "mod(") {
		t.Errorf("fmod renamed to floor-based mod:\n%s", out)
	}
}

// TestLowerFmodLinear pins that nested fmod calls translate in size linear
// in the nesting depth (each operand is bound once, not re-translated per
// use in the identity), and that the helper fmod translates through
// renders bit-identically to the identity written out by hand, negative
// operands included.
func TestLowerFmodLinear(t *testing.T) {
	const depth = 24
	src := "uv.x"
	for i := 0; i < depth; i++ {
		src = "fmod(" + src + ", 0.7)"
	}
	prog := compile(t, "float4 main(float2 uv : TEXCOORD0) : SV_Target { return float4("+src+", 0.0, 0.0, 1.0); }")
	if n := prog.Body.CountInstrs(); n >= 1000*depth {
		t.Errorf("depth-%d fmod nesting lowered to %d instructions, want fewer than %d", depth, n, 1000*depth)
	}

	const head = "float4 main(float2 uv : TEXCOORD0) : SV_Target {\n    float x = uv.x * 4.0 - 2.0;\n    float y = uv.y * 3.0 - 1.6;\n"
	helper := compile(t, head+"    return float4(fmod(x, y), fmod(x, -0.7), fmod(-x, 0.3), 1.0);\n}")
	identity := compile(t, head+`    return float4(x - y * (sign(x / y) * floor(abs(x / y))),
                  x - -0.7 * (sign(x / -0.7) * floor(abs(x / -0.7))),
                  -x - 0.3 * (sign(-x / 0.3) * floor(abs(-x / 0.3))), 1.0);
}`)
	henv, ienv := harness.DefaultEnv(helper), harness.DefaultEnv(identity)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			uv := ir.FloatConst((float64(i)+0.5)/4, (float64(j)+0.5)/4)
			henv.Inputs["uv"], ienv.Inputs["uv"] = uv, uv
			hres, err := exec.Run(helper, henv)
			if err != nil {
				t.Fatal(err)
			}
			ires, err := exec.Run(identity, ienv)
			if err != nil {
				t.Fatal(err)
			}
			hout, iout := hres.Outputs["fragColor"], ires.Outputs["fragColor"]
			for c := 0; c < 3; c++ {
				if math.Float64bits(hout.Float(c)) != math.Float64bits(iout.Float(c)) {
					t.Errorf("pixel (%d,%d) component %d: fmod %v, identity %v", i, j, c, hout.Float(c), iout.Float(c))
				}
			}
		}
	}
}

// TestLowerFragColorCollision pins that a user global named fragColor
// does not collide with the synthesized SV_Target out variable.
func TestLowerFragColorCollision(t *testing.T) {
	prog := compile(t, `
float4 fragColor;
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    return fragColor * uv.x;
}`)
	if len(prog.Uniforms) != 1 || prog.Uniforms[0].Name != "fragColor" {
		t.Fatalf("uniforms = %v, want the user's fragColor", prog.Uniforms)
	}
	if len(prog.Outputs) != 1 || prog.Outputs[0].Name == "fragColor" {
		t.Fatalf("outputs = %v, want a renamed synthesized out variable", prog.Outputs)
	}
	out := glslgen.Generate(prog, glslgen.Desktop)
	if _, err := glsl.Parse(out); err != nil {
		t.Fatalf("generated GLSL does not re-parse: %v\n%s", err, out)
	}
}

// TestLowerRenameCollisionsDoNotAlias pins that two module globals whose
// sanitized spellings would collide keep distinct identities: scopes are
// keyed by the original HLSL name, so `texture` (which sanitizes to
// texture_h) and a literal `texture_h` global never alias.
func TestLowerRenameCollisionsDoNotAlias(t *testing.T) {
	prog := compile(t, `
cbuffer B {
    float texture_h;
    float texture;
};
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    return float4(texture, texture_h, uv.x, 1.0);
}`)
	if len(prog.Uniforms) != 2 {
		t.Fatalf("uniforms = %v, want two distinct slots", prog.Uniforms)
	}
	if prog.Uniforms[0].Name == prog.Uniforms[1].Name {
		t.Fatalf("colliding renames merged: both uniforms named %q", prog.Uniforms[0].Name)
	}
	// Behavioural check: set the two uniforms to different values and
	// confirm each HLSL identifier reads its own slot.
	env := harness.DefaultEnv(prog)
	env.Uniforms[prog.Uniforms[0].Name] = ir.FloatConst(0.25) // texture_h (declared first)
	env.Uniforms[prog.Uniforms[1].Name] = ir.FloatConst(0.75) // texture
	env.Inputs["uv"] = ir.FloatConst(0.5, 0.5)
	res, err := exec.Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[prog.Outputs[0].Name]
	if out.Float(0) != 0.75 || out.Float(1) != 0.25 {
		t.Errorf("identifiers aliased: got (%v, %v), want (0.75, 0.25)", out.Float(0), out.Float(1))
	}
}

// TestLowerEntryParamShadowsGlobal pins that an entry-point parameter may
// share a name with a cbuffer member or global — legal HLSL shadowing —
// without colliding in the generated GLSL's module namespace.
func TestLowerEntryParamShadowsGlobal(t *testing.T) {
	prog := compile(t, `
cbuffer B {
    float2 uv;
};
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    return float4(uv, 0.0, 1.0);
}`)
	if len(prog.Inputs) != 1 {
		t.Fatalf("inputs = %v", prog.Inputs)
	}
	// The body's `uv` must read the parameter (the varying input), not
	// the shadowed cbuffer member.
	env := harness.DefaultEnv(prog)
	env.Inputs[prog.Inputs[0].Name] = ir.FloatConst(0.25, 0.5)
	res, err := exec.Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	out := res.Outputs[prog.Outputs[0].Name]
	if out.Float(0) != 0.25 || out.Float(1) != 0.5 {
		t.Errorf("parameter did not shadow the cbuffer member: got (%v, %v)", out.Float(0), out.Float(1))
	}
}

// TestLowerLocalFragColorDoesNotCaptureReturn pins that a function-local
// named fragColor cannot shadow the synthesized out variable: the entry
// return desugars into a store to that variable by name, and a capturing
// local would silently blank the shader's output.
func TestLowerLocalFragColorDoesNotCaptureReturn(t *testing.T) {
	prog := compile(t, `
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    float4 fragColor = float4(uv, 0.25, 1.0);
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

// TestLowerReturnPromotesInt pins HLSL's implicit conversion on return
// values: `return 0;` from a float function is legal.
func TestLowerReturnPromotesInt(t *testing.T) {
	prog := compile(t, `
float fallback(float x) {
    return x > 0.5 ? 1 : 0;
}
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    return float4(fallback(uv.x), 0.0, 0.0, 1.0);
}`)
	env := harness.DefaultEnv(prog)
	env.Inputs["uv"] = ir.FloatConst(0.75, 0.0)
	res, err := exec.Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Outputs["fragColor"].Float(0); got != 1 {
		t.Errorf("fallback(0.75) = %v, want 1", got)
	}
}

func TestLowerMulAndMadDesugar(t *testing.T) {
	prog := compile(t, `
static const float3x3 rot = float3x3(0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0);
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    float3 v = mul(rot, float3(uv, 1.0));
    float m = mad(uv.x, 2.0, uv.y);
    return float4(v * m, 1.0);
}`)
	out := glslgen.Generate(prog, glslgen.Desktop)
	for _, stale := range []string{"mul(", "mad("} {
		if strings.Contains(out, stale) {
			t.Errorf("%s survived desugaring:\n%s", stale, out)
		}
	}
	// mul must reach the IR as the linear-algebraic * on a mat3.
	if !strings.Contains(out, "mat3") {
		t.Errorf("matrix type lost:\n%s", out)
	}
}

func TestLowerIntPromotion(t *testing.T) {
	// HLSL's implicit int→float conversions become explicit float() casts
	// so the strict canonical checker accepts the translation.
	prog := compile(t, `
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    float x = 1;
    float y = uv.x / 2;
    float z = max(uv.y, 0);
    float3 v = float3(1, 0, x);
    return float4(v * (y + z), 1.0);
}`)
	out := glslgen.Generate(prog, glslgen.Desktop)
	if _, err := glsl.Parse(out); err != nil {
		t.Fatalf("promoted source does not re-parse: %v\n%s", err, out)
	}
	if _, err := lower.Lower(glsl.MustParse(out), "reparse"); err != nil {
		t.Fatalf("promoted source does not re-lower: %v\n%s", err, out)
	}
}

func TestLowerClipDesugar(t *testing.T) {
	prog := compile(t, `
Texture2D tex;
SamplerState s;
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    float4 c = tex.Sample(s, uv);
    clip(c.a - 0.5);
    return c;
}`)
	env := harness.DefaultEnv(prog)
	env.Inputs["uv"] = ir.FloatConst(0.5, 0.5)
	res, err := exec.Run(prog, env)
	if err != nil {
		t.Fatal(err)
	}
	// The default texture's alpha is 1.0, so the fragment survives.
	if res.Discarded {
		t.Error("clip(0.5) discarded a surviving fragment")
	}
	out := glslgen.Generate(prog, glslgen.Desktop)
	if !strings.Contains(out, "discard") {
		t.Errorf("clip did not desugar to discard:\n%s", out)
	}
}

func TestLowerHelperFunctionInlined(t *testing.T) {
	prog := compile(t, miniShader)
	out := glslgen.Generate(prog, glslgen.Desktop)
	if strings.Contains(out, "float luma") {
		t.Errorf("helper not inlined:\n%s", out)
	}
}

func TestLowerIdentifierSanitization(t *testing.T) {
	// "texture" and "mix" are legal HLSL identifiers but collide with
	// GLSL's keyword/builtin namespace; the translator must rename them.
	prog := compile(t, `
cbuffer B {
    float4 texture;
    float mix;
};
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    float4 smooth = texture * mix * uv.x;
    return smooth;
}`)
	out := glslgen.Generate(prog, glslgen.Desktop)
	if _, err := glsl.Parse(out); err != nil {
		t.Fatalf("sanitized source does not re-parse: %v\n%s", err, out)
	}
	if _, err := lower.Lower(glsl.MustParse(out), "reparse"); err != nil {
		t.Fatalf("sanitized source does not re-lower: %v\n%s", err, out)
	}
}

func TestLowerDiscardAndEntryReturn(t *testing.T) {
	prog := compile(t, `
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    if (uv.x > 0.5) {
        discard;
    }
    return float4(uv, 0.0, 1.0);
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

// TestLowerMatchesGLSLFrontend is the cross-frontend equivalence check:
// the same shader written in GLSL and HLSL must produce identical
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
    vec3 toned = mix(c.rgb, vec3(l, l, l), 0.5);
    fragColor = vec4(toned * sin(l * 3.14159), 1.0);
}
`
	hlslSrc := `
Texture2D tex : register(t0);
SamplerState smp : register(s0);
cbuffer B : register(b0) {
    float4 tint;
};

float4 main(float2 uv : TEXCOORD0) : SV_Target {
    float4 c = tex.Sample(smp, uv) * tint;
    float l = dot(c.rgb, float3(0.299, 0.587, 0.114));
    float3 toned = lerp(c.rgb, float3(l, l, l), 0.5);
    return float4(toned * sin(l * 3.14159), 1.0);
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
	hprog := compile(t, hlslSrc)

	genv := harness.DefaultEnv(gprog)
	henv := harness.DefaultEnv(hprog)
	for _, uvpt := range [][2]float64{{0.1, 0.1}, {0.5, 0.25}, {0.9, 0.7}, {0.33, 0.66}} {
		genv.Inputs["uv"] = ir.FloatConst(uvpt[0], uvpt[1])
		henv.Inputs["uv"] = ir.FloatConst(uvpt[0], uvpt[1])
		gres, err := exec.Run(gprog, genv)
		if err != nil {
			t.Fatal(err)
		}
		hres, err := exec.Run(hprog, henv)
		if err != nil {
			t.Fatal(err)
		}
		gout, hout := gres.Outputs["fragColor"], hres.Outputs["fragColor"]
		for i := 0; i < 4; i++ {
			if gout.Float(i) != hout.Float(i) {
				t.Errorf("uv=%v component %d: glsl %v != hlsl %v", uvpt, i, gout.Float(i), hout.Float(i))
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
		{"no entry", `float helper(float x) { return x; }`, "entry point"},
		{"void entry", `void main(float2 uv : TEXCOORD0) { }`, "sv_target"},
		{"undefined ident", `float4 main() : SV_Target { return float4(nope, 0.0, 0.0, 1.0); }`, "undefined"},
		{"sampler as value", `
SamplerState s;
float4 main() : SV_Target { float4 x = s; return x; }`, "sampler"},
		{"undeclared sampler arg", `
Texture2D tex;
float4 main(float2 uv : TEXCOORD0) : SV_Target {
    return tex.Sample(tex, uv);
}`, "samplerstate"},
		{"unknown method", `
Texture2D tex;
SamplerState s;
float4 main(float2 uv : TEXCOORD0) : SV_Target { return tex.Gather(s, uv); }`, "subset"},
		{"bad swizzle", `float4 main(float2 uv : TEXCOORD0) : SV_Target { return float4(uv.z); }`, "swizzle"},
		{"out param", `
void side(out float x) { x = 1.0; }
float4 main() : SV_Target { return float4(1.0, 1.0, 1.0, 1.0); }`, "out"},
		{"uninitialized uniform default", `
float k = 1.0;
float4 main() : SV_Target { return float4(k, k, k, 1.0); }`, "static"},
		{"brace init non-array", `
float4 main() : SV_Target { float x = {1.0}; return float4(x, x, x, 1.0); }`, "array"},
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
