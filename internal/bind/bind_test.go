package bind_test

import (
	"regexp"
	"strings"
	"testing"

	"shaderopt/internal/hlsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/msl"
	"shaderopt/internal/wgsl"
)

// compilers are the three frontends the binder serves, by language name.
var compilers = map[string]func(src, name string) (*ir.Program, error){
	"hlsl": hlsl.Compile,
	"wgsl": wgsl.Compile,
	"msl":  msl.Compile,
}

// wrap places a function body in each language's minimal fragment entry
// point, with a float2 uv input.
func wrap(lang, body string) string {
	switch lang {
	case "hlsl":
		return "float4 main(float2 uv : TEXCOORD0) : SV_Target {\n" + body + "\n}\n"
	case "wgsl":
		return "@fragment fn main(@location(0) uv: vec2<f32>) -> @location(0) vec4<f32> {\n" + body + "\n}\n"
	}
	return "struct In { float2 uv [[user(locn0)]]; };\nfragment float4 main0(In in [[stage_in]]) {\nfloat2 uv = in.uv;\n" + body + "\n}\n"
}

var position = regexp.MustCompile(`\d+:\d+: `)

// TestSharedRejections writes each rejection the binder makes for all
// three frontends once per language that has the construct, and checks
// that every frontend's Compile rejects it with a line:col position.
func TestSharedRejections(t *testing.T) {
	cases := []struct {
		name, want string
		src        map[string]string // body per language
	}{
		{"undefined identifier", "undefined identifier", map[string]string{
			"hlsl": "return float4(nope, 0.0, 0.0, 1.0);",
			"wgsl": "return vec4<f32>(nope);",
			"msl":  "return float4(nope);",
		}},
		{"non-bool if", "if condition must be bool", map[string]string{
			"hlsl": "if (uv.x) { discard; } return float4(1.0, 1.0, 1.0, 1.0);",
			"wgsl": "if uv.x { discard; } return vec4<f32>(1.0);",
			"msl":  "if (uv.x) { discard_fragment(); } return float4(1.0);",
		}},
		{"non-bool while", "while condition must be bool", map[string]string{
			"hlsl": "while (1) { break; } return float4(1.0, 1.0, 1.0, 1.0);",
			"wgsl": "while (1) { break; } return vec4<f32>(1.0);",
			"msl":  "while (1) { break; } return float4(1.0);",
		}},
		{"non-bool for", "for condition must be bool", map[string]string{
			"hlsl": "for (int i = 0; i; i++) { } return float4(1.0, 1.0, 1.0, 1.0);",
			"wgsl": "for (var i = 0; i; i++) { } return vec4<f32>(1.0);",
			"msl":  "for (int i = 0; i; i++) { } return float4(1.0);",
		}},
		{"non-bool ternary", "ternary condition must be bool", map[string]string{
			"hlsl": "return float4(uv.x ? 1.0 : 0.0, 0.0, 0.0, 1.0);",
			"msl":  "return float4(uv.x ? 1.0 : 0.0);",
		}},
		{"non-integer index", "index must be an integer scalar", map[string]string{
			"hlsl": "return float4(uv[0.5], 0.0, 0.0, 1.0);",
			"wgsl": "return vec4<f32>(uv[0.5]);",
			"msl":  "return float4(uv[0.5]);",
		}},
		{"bad swizzle", "swizzle", map[string]string{
			"hlsl": "return float4(uv.z, 0.0, 0.0, 1.0);",
			"wgsl": "return vec4<f32>(uv.z);",
			"msl":  "return float4(uv.z);",
		}},
		{"undefined function", "call to undefined function", map[string]string{
			"hlsl": "return float4(nope(uv.x), 0.0, 0.0, 1.0);",
			"wgsl": "return vec4<f32>(nope(uv.x));",
			"msl":  "return float4(nope(uv.x));",
		}},
		{"brace initializer on a non-array", "brace initializers are only supported for arrays", map[string]string{
			"hlsl": "float x = {1.0}; return float4(x, x, x, 1.0);",
			"msl":  "float x = {1.0}; return float4(x);",
		}},
	}
	for lang, body := range map[string]string{
		"hlsl": "return float4(uv, 0.0, 1.0);",
		"wgsl": "return vec4<f32>(uv, 0.0, 1.0);",
		"msl":  "return float4(uv, 0.0, 1.0);",
	} {
		if _, err := compilers[lang](wrap(lang, body), "baseline"); err != nil {
			t.Fatalf("%s: the wrapper alone does not compile: %v", lang, err)
		}
	}
	for _, c := range cases {
		for _, lang := range []string{"hlsl", "wgsl", "msl"} {
			body, ok := c.src[lang]
			if !ok {
				continue
			}
			_, err := compilers[lang](wrap(lang, body), c.name)
			if err == nil {
				t.Errorf("%s/%s: compiled, want an error mentioning %q", lang, c.name, c.want)
				continue
			}
			if !strings.Contains(err.Error(), c.want) || !position.MatchString(err.Error()) {
				t.Errorf("%s/%s: error %q, want %q with a line:col position", lang, c.name, err, c.want)
			}
		}
	}
	// A helper named like a builtin, constructor or conversion, names the
	// binder resolves before user functions, in each frontend.
	for _, sh := range []struct{ lang, name, decl, body string }{
		{"hlsl", "sin", "float sin(float x) { return x * 3.0 + 1.0; }", "return float4(sin(uv.x), 0.0, 0.0, 1.0);"},
		{"hlsl", "saturate", "float saturate(float x) { return x * 3.0 + 1.0; }", "return float4(saturate(uv.x), 0.0, 0.0, 1.0);"},
		{"hlsl", "frac", "float frac(float x) { return x * 3.0 + 1.0; }", "return float4(frac(uv.x), 0.0, 0.0, 1.0);"},
		{"wgsl", "f16", "fn f16(x: f32) -> f32 { return x * 3.0 + 1.0; }", "return vec4<f32>(f16(uv.x));"},
		{"wgsl", "f32", "fn f32(x: f32) -> f32 { return x * 3.0 + 1.0; }", "return vec4<f32>(f32(uv.x));"},
		{"wgsl", "i32", "fn i32(x: f32) -> f32 { return x * 3.0 + 1.0; }", "return vec4<f32>(i32(uv.x));"},
		{"wgsl", "sin", "fn sin(x: f32) -> f32 { return x * 3.0 + 1.0; }", "return vec4<f32>(sin(uv.x));"},
		{"msl", "sin", "float sin(float x) { return x * 3.0 + 1.0; }", "return float4(sin(uv.x));"},
		// Names the frontend's own hook claims ahead of user functions.
		{"hlsl", "mul", "float mul(float a, float b) { return a - b; }", "return float4(mul(uv.x, 2.0), 0.0, 0.0, 1.0);"},
		{"hlsl", "mad", "float mad(float a, float b, float c) { return a - b - c; }", "return float4(mad(uv.x, 2.0, 1.0), 0.0, 0.0, 1.0);"},
		{"hlsl", "fmod", "float fmod(float a, float b) { return a - b; }", "return float4(fmod(uv.x, 2.0), 0.0, 0.0, 1.0);"},
		{"hlsl", "clip", "void clip(float x) { }", "clip(uv.x); return float4(uv, 0.0, 1.0);"},
		{"wgsl", "select", "fn select(a: f32, b: f32, c: bool) -> f32 { return a - b; }", "return vec4<f32>(select(uv.x, 2.0, true));"},
		{"wgsl", "textureSample", "fn textureSample(x: f32) -> f32 { return x * 3.0; }", "return vec4<f32>(textureSample(uv.x));"},
		{"wgsl", "textureSampleLevel", "fn textureSampleLevel(x: f32) -> f32 { return x * 3.0; }", "return vec4<f32>(textureSampleLevel(uv.x));"},
		{"wgsl", "array", "fn array(x: f32) -> f32 { return x * 3.0; }", "return vec4<f32>(array(uv.x));"},
		{"msl", "discard_fragment", "void discard_fragment() { }", "discard_fragment(); return float4(uv, 0.0, 1.0);"},
	} {
		want := "shadows the builtin " + sh.name
		_, err := compilers[sh.lang](sh.decl+"\n"+wrap(sh.lang, sh.body), sh.name)
		if err == nil || !strings.Contains(err.Error(), want) || !position.MatchString(err.Error()) {
			t.Errorf("%s helper %s: error %v, want %q with a line:col position", sh.lang, sh.name, err, want)
		}
	}
}
