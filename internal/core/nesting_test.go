package core_test

import (
	"fmt"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

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
// error from every frontend, and that lexing stops at the bound: the four
// Compiles together allocate a few MB, not the ~300 MB a fully lexed
// stream of two million tokens takes.
func TestMillionNestedParentheses(t *testing.T) { checkLexingStops(t, "parentheses") }

// TestMillionUnaryOperators is the same check for a 2 MB chain of 10^6
// unary minuses, which the scanner bounds like brackets: fully lexed, it
// took ~180 MB in each frontend before the parser's nesting error.
func TestMillionUnaryOperators(t *testing.T) { checkLexingStops(t, "unary minus") }

// checkLexingStops compiles the nesting family nested 10^6 deep in every
// frontend, wanting a nesting error from each and under 8 MB allocated by
// the four Compiles together.
func checkLexingStops(t *testing.T, family string) {
	t.Helper()
	srcs := make([]string, len(nestLangs))
	for i, lang := range nestLangs {
		srcs[i] = nestFamilies[family](lang, 1_000_000)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, lang := range nestLangs {
		if _, err := core.Compile(srcs[i], "deep", lang); err == nil || !nestError.MatchString(err.Error()) {
			t.Errorf("%s: got %v, want a nesting error", lang, err)
		}
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 8<<20 {
		t.Errorf("four Compiles allocated %d bytes, want < 8 MB", alloc)
	}
}

// helperWrap places helper functions at module scope ahead of the entry
// point of nestWrap's shader.
func helperWrap(lang core.Lang, helpers, body, color string) string {
	entry := map[core.Lang]string{core.LangGLSL: "void main", core.LangHLSL: "float4 main",
		core.LangWGSL: "@fragment", core.LangMSL: "fragment float4"}[lang]
	return strings.Replace(nestWrap(lang, body, color), entry, helpers+entry, 1)
}

// doubling declares g0 … gn, each gk calling g(k-1) twice through body,
// which names the callee f and the parameter x, so full inlining expands
// gn into 2^n copies of g0. (Not f16: WGSL reads that as a type.)
func doubling(lang core.Lang, n int, body func(f string) string) string {
	var b strings.Builder
	for k := 0; k <= n; k++ {
		ret := "return x * 0.5 + 0.25;"
		if k > 0 {
			ret = body(fmt.Sprintf("g%d", k-1))
		}
		if lang == core.LangWGSL {
			fmt.Fprintf(&b, "fn g%d(x: f32) -> f32 { %s }\n", k, ret)
		} else {
			fmt.Fprintf(&b, "float g%d(float x) { %s }\n", k, ret)
		}
	}
	return helperWrap(lang, b.String(), "", fmt.Sprintf("g%d(uv.x)", n))
}

// adversarialFamilies build sources that are small but ask a frontend for
// unbounded work, each at a size past the bound that stops it: the
// instruction budget for what inlining or a long chain expands, the
// nesting bound for what nests.
var adversarialFamilies = map[string]struct {
	src   func(lang core.Lang) string
	bound string // what the error must name
}{
	"call doubling": {func(lang core.Lang) string {
		return doubling(lang, 20, func(f string) string { return "return " + f + "(x) + " + f + "(x * 0.5);" })
	}, "budget"},
	"same-named locals": {func(lang core.Lang) string {
		decl := "float"
		if lang == core.LangWGSL {
			decl = "let"
		}
		return doubling(lang, 20, func(f string) string {
			return decl + " t = " + f + "(x); " + decl + " u = " + f + "(t); return t + u;"
		})
	}, "budget"},
	"nested fmod": {func(lang core.Lang) string {
		open, close := "fmod(", ", 0.3)"
		switch lang {
		case core.LangGLSL:
			open = "mod("
		case core.LangWGSL:
			open, close = "(", " % 0.3)"
		}
		n := lex.MaxDepth + 1
		return nestWrap(lang, "", strings.Repeat(open, n)+"uv.x"+strings.Repeat(close, n))
	}, "nesting"},
	"operator chain": {func(lang core.Lang) string {
		return nestWrap(lang, "", "uv.x"+strings.Repeat(" + uv.x", 40_000))
	}, "budget"},
	"unary chain": {func(lang core.Lang) string {
		return nestWrap(lang, "", "uv.x"+strings.Repeat(" -", 1_000_000)+" uv.x")
	}, "nesting"},
}

// TestAdversarialFamiliesTerminate runs each adversarial family through
// every frontend's Compile: each must return an error naming its bound,
// not panic, hang or exhaust memory.
func TestAdversarialFamiliesTerminate(t *testing.T) {
	for name, fam := range adversarialFamilies {
		for _, lang := range nestLangs {
			_, err := core.Compile(fam.src(lang), name, lang)
			if err == nil || !strings.Contains(err.Error(), fam.bound) {
				t.Errorf("%s/%s: got %v, want an error naming the %s", lang, name, err, fam.bound)
			}
		}
	}
}

// acceptedFamilies build sources that Compile accepts and whose
// enumeration once cost far more than their size: a loop condition
// reading a doubling chain (a0 + a0, a1 + a1, …, which ADCE's walk of
// the condition once visited 2^n times), and long def chains (which its
// fixed point once walked once per link).
var acceptedFamilies = map[string]func(lang core.Lang) string{
	"doubling-chain while": func(lang core.Lang) string { return doublingWhile(lang, 40) },
	"sum chain 3000":       func(lang core.Lang) string { return sumChain(lang, 3000) },
	"sum chain 12000":      func(lang core.Lang) string { return sumChain(lang, 12000) },
}

// local declares a float local in lang.
func local(lang core.Lang, name, init string) string {
	if lang == core.LangWGSL {
		return "var " + name + ": f32 = " + init + ";\n"
	}
	return "float " + name + " = " + init + ";\n"
}

// doublingWhile declares a0 = uv.x and ak = a(k-1) + a(k-1) up to an,
// then doubles s while it is below an.
func doublingWhile(lang core.Lang, n int) string {
	var b strings.Builder
	b.WriteString(local(lang, "a0", "uv.x"))
	for k := 1; k <= n; k++ {
		b.WriteString(local(lang, fmt.Sprintf("a%d", k), fmt.Sprintf("a%d + a%d", k-1, k-1)))
	}
	b.WriteString(local(lang, "s", "1.0"))
	fmt.Fprintf(&b, "while (s < a%d) { s = s * 2.0; }", n)
	return nestWrap(lang, b.String(), "s")
}

// sumChain adds sin(s) to s n times, one statement each: a def chain of
// 5n instructions as lowered.
func sumChain(lang core.Lang, n int) string {
	var b strings.Builder
	b.WriteString(local(lang, "s", "uv.x"))
	for range n {
		b.WriteString("s = s + sin(s);\n")
	}
	return nestWrap(lang, b.String(), "s")
}

// TestAcceptedFamiliesEnumerate compiles and enumerates every accepted
// family in every frontend, and checks that the 12000-term sum chain
// enumerates in at most 8 times the 3000-term chain's time, measured in
// the same run: enumeration is linear in a def chain, not quadratic.
func TestAcceptedFamiliesEnumerate(t *testing.T) {
	enum := map[string]time.Duration{}
	for name, fam := range acceptedFamilies {
		for _, lang := range nestLangs {
			sh, err := core.Compile(fam(lang), name, lang)
			if err != nil {
				t.Fatalf("%s/%s: %v", lang, name, err)
			}
			runtime.GC()
			start := time.Now()
			if vs := sh.Variants(); vs.Unique() == 0 {
				t.Errorf("%s/%s: no variants", lang, name)
			}
			enum[name] += time.Since(start)
		}
	}
	small, large := enum["sum chain 3000"], enum["sum chain 12000"]
	t.Logf("sum chain enumeration, all frontends: 3000 terms %v, 12000 terms %v", small, large)
	if large > 8*small {
		t.Errorf("the 12000-term sum chain enumerates in %v, over 8 times the 3000-term chain's %v", large, small)
	}
}
