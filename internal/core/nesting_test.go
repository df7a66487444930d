package core_test

import (
	"regexp"
	"strings"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/lex"
)

// nestWrap places a function body, which returns color, in each
// language's minimal fragment shader with a float2 uv input.
func nestWrap(lang core.Lang, body, color string) string {
	switch lang {
	case core.LangGLSL:
		return "#version 330\nin vec2 uv;\nout vec4 o;\nvoid main() {\n" + body + "\no = vec4(" + color + ");\n}\n"
	case core.LangHLSL:
		return "float4 main(float2 uv : TEXCOORD0) : SV_Target {\n" + body + "\nreturn float4(" + color + ", 0.0, 0.0, 1.0);\n}\n"
	case core.LangWGSL:
		return "@fragment fn main(@location(0) uv: vec2<f32>) -> @location(0) vec4<f32> {\n" + body + "\nreturn vec4<f32>(" + color + ");\n}\n"
	}
	return "struct In { float2 uv [[user(locn0)]]; };\nfragment float4 main0(In in [[stage_in]]) {\nfloat2 uv = in.uv;\n" + body + "\nreturn float4(" + color + ");\n}\n"
}

// nestFamilies build a shader nesting n levels deep in one way each; a
// family maps to "" for a language without the construct.
var nestFamilies = map[string]func(lang core.Lang, n int) string{
	"parentheses": func(lang core.Lang, n int) string {
		return nestWrap(lang, "", strings.Repeat("(", n)+"uv.x"+strings.Repeat(")", n))
	},
	"unary minus": func(lang core.Lang, n int) string {
		return nestWrap(lang, "", strings.Repeat("- ", n)+"uv.x")
	},
	"blocks": func(lang core.Lang, n int) string {
		if lang == core.LangMSL { // MSL has no bare blocks
			return nestWrap(lang, strings.Repeat("if (uv.x > 0.5) { ", n)+strings.Repeat("} ", n), "uv.x")
		}
		return nestWrap(lang, strings.Repeat("{ ", n)+strings.Repeat("} ", n), "uv.x")
	},
	"else if": func(lang core.Lang, n int) string {
		return nestWrap(lang, "if (uv.x > 0.5) { }"+strings.Repeat(" else if (uv.x > 0.5) { }", n), "uv.x")
	},
	"template types": func(lang core.Lang, n int) string {
		switch lang {
		case core.LangWGSL:
			return nestWrap(lang, "var a: "+strings.Repeat("array<", n)+"f32"+strings.Repeat(", 1>", n)+";", "uv.x")
		case core.LangMSL:
			return nestWrap(lang, strings.Repeat("array<", n)+"float"+strings.Repeat(", 1>", n)+" a;", "uv.x")
		}
		return ""
	},
}

var nestLangs = []core.Lang{core.LangGLSL, core.LangHLSL, core.LangWGSL, core.LangMSL}

var nestError = regexp.MustCompile(`\d+:\d+: nesting deeper than \d+ levels`)

// TestNestingBound checks that every frontend's Compile rejects a source
// nested just past lex.MaxDepth with a line:col error, in each way a
// parser recurses, and that half the bound raises no nesting error.
func TestNestingBound(t *testing.T) {
	for name, family := range nestFamilies {
		for _, lang := range nestLangs {
			if family(lang, 1) == "" {
				continue
			}
			if _, err := core.Compile(family(lang, lex.MaxDepth/2), name, lang); err != nil && nestError.MatchString(err.Error()) {
				t.Errorf("%s/%s at depth %d: %v", lang, name, lex.MaxDepth/2, err)
			}
			_, err := core.Compile(family(lang, lex.MaxDepth+1), name, lang)
			if err == nil || !nestError.MatchString(err.Error()) {
				t.Errorf("%s/%s at depth %d: got %v, want a nesting error", lang, name, lex.MaxDepth+1, err)
			}
		}
	}
}

// TestMillionNestedParentheses checks that a 2 MB source of 10^6 nested
// parentheses, which once overflowed the goroutine stack, returns an
// error from every frontend. Its two million tokens take about 300 MB,
// so -short skips it.
func TestMillionNestedParentheses(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates about 300 MB")
	}
	for _, lang := range nestLangs {
		src := nestFamilies["parentheses"](lang, 1_000_000)
		if _, err := core.Compile(src, "deep", lang); err == nil || !nestError.MatchString(err.Error()) {
			t.Errorf("%s: got %v, want a nesting error", lang, err)
		}
	}
}
