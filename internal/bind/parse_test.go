package bind_test

import (
	"regexp"
	"testing"
)

// linecol finds an error's first line:col position.
var linecol = regexp.MustCompile(`\d+:\d+`)

// TestParseRejections pins how each frontend treats the syntax its
// grammar handles differently from the others: whether Compile accepts
// each body, and where it rejects one. A want of "" means the body
// compiles. HLSL and WGSL rows pin the exact error; MSL rows pin only the
// line:col.
func TestParseRejections(t *testing.T) {
	cases := []struct {
		name, lang, body, want string
	}{
		// Conditional expressions and method calls exist in HLSL and MSL only.
		{"ternary", "hlsl", "return float4(uv.x > 0.5 ? 1.0 : 0.0, 0.0, 0.0, 1.0);", ""},
		{"ternary", "msl", "return float4(uv.x > 0.5 ? 1.0 : 0.0);", ""},
		{"ternary", "wgsl", "return vec4<f32>(uv.x > 0.5 ? 1.0 : 0.0);", `2:29: expected ",", found punctuation "?"`},
		{"method call", "wgsl", "return vec4<f32>(uv.length());", `2:27: expected ",", found punctuation "("`},

		// HLSL and MSL parenthesise conditions and take an unbraced body;
		// WGSL's parentheses are optional and its braces mandatory.
		{"unbraced if", "hlsl", "if (uv.x > 0.5) discard; return float4(1.0, 1.0, 1.0, 1.0);", ""},
		{"unbraced if", "msl", "if (uv.x > 0.5) discard_fragment(); return float4(1.0);", ""},
		{"unbraced if", "wgsl", "if uv.x > 0.5 discard; return vec4<f32>(1.0);", `2:15: expected "{", found keyword "discard"`},
		{"unbraced else", "wgsl", "if uv.x > 0.5 { discard; } else discard; return vec4<f32>(1.0);", `2:33: expected "{", found keyword "discard"`},
		{"unparenthesised if", "hlsl", "if uv.x > 0.5 { discard; } return float4(1.0, 1.0, 1.0, 1.0);", `2:4: expected "(", found identifier "uv"`},
		{"optional parentheses", "wgsl", "if (uv.x > 0.5) { discard; } if uv.y > 2.0 { discard; } return vec4<f32>(1.0);", ""},
		{"statement attribute", "hlsl", "[unroll] for (int i = 0; i < 2; i++) { } return float4(1.0, 1.0, 1.0, 1.0);", ""},

		// Increments: prefix forms are C-style only, and %= is MSL's alone.
		{"prefix increment", "wgsl", "var i = 0; ++i; return vec4<f32>(1.0);", `2:12: unexpected token punctuation "++" in expression`},
		{"prefix increment of a negation", "hlsl", "float x = 1.0; ++-x; return float4(x, x, x, 1.0);", `2:18: unexpected token punctuation "-" in expression`},
		{"prefix increment of a unary plus", "msl", "float x = 1.0; ++ +x; return float4(x);", ""},
		{"prefix increment of a negation", "msl", "float x = 1.0; ++-x; return float4(x);", "4:18"},
		{"modulo assignment", "hlsl", "float x = 1.0; x %= 2.0; return float4(x, x, x, 1.0);", `2:18: expected ";", found punctuation "%="`},
		{"modulo assignment", "wgsl", "var x = 3; x %= 2; return vec4<f32>(1.0);", `2:14: expected ";", found punctuation "%="`},
		{"modulo assignment", "msl", "int x = 3; x %= 2; return float4(1.0);", ""},
		{"declaration in a for post", "wgsl", "for (var i = 0; i < 3; var j = 1;) { } return vec4<f32>(1.0);", `2:24: a declaration cannot be a for loop's post statement`},
		{"let in a for post", "wgsl", "for (var i = 0; i < 3; let j = 1) { } return vec4<f32>(1.0);", `2:24: a declaration cannot be a for loop's post statement`},

		// Bare blocks, empty statements and trailing argument commas.
		{"bare block", "hlsl", "{ } ; return float4(1.0, 1.0, 1.0, 1.0);", ""},
		{"bare block", "msl", "{ } return float4(1.0);", "4:1"},
		{"empty statement", "msl", "; return float4(1.0);", "4:1"},
		{"trailing argument comma", "hlsl", "return float4(uv, 0.0, 1.0,);", `2:28: unexpected token punctuation ")" in expression`},
		{"trailing argument comma", "msl", "return float4(uv, 0.0, 1.0,);", ""},

		// Literals and array declarators.
		{"hex literal past int64", "hlsl", "int x = 0x8000000000000000; return float4(1.0, 1.0, 1.0, 1.0);", `2:9: bad hex literal "0x8000000000000000"`},
		{"hex literal past int64", "wgsl", "var x = 0x8000000000000000; return vec4<f32>(1.0);", `2:9: bad hex literal "0x8000000000000000"`},
		{"hex literal past int64", "msl", "int x = 0x8000000000000000; return float4(1.0);", "4:9"},
		{"negative array length", "msl", "float a[-1]; return float4(1.0);", "4:9"},
		{"zero array length", "hlsl", "float a[0]; return float4(1.0, 1.0, 1.0, 1.0);", `2:9: bad array length "0"`},
		{"zero array length", "msl", "float a[0]; return float4(1.0);", "4:1"},
		{"array length past int", "hlsl", "float a[99999999999999999999]; return float4(1.0, 1.0, 1.0, 1.0);", `2:9: bad array length "99999999999999999999"`},
		{"array length past int", "msl", "float a[99999999999999999999]; return float4(1.0);", "4:9"},
		{"hex array length", "msl", "float a[0x10]; return float4(1.0);", "4:9"},
		{"unsized array", "hlsl", "float a[] = {1.0, 2.0}; return float4(a[0], a[1], 0.0, 1.0);", ""},
		{"unsized array", "msl", "float a[] = {1.0}; return float4(1.0);", "4:9"},
		{"typed array initializer", "msl", "array<float, 2> k = array<float, 2>{1.0, 2.0}; return float4(k[0]);", ""},
	}
	for _, c := range cases {
		_, err := compilers[c.lang](wrap(c.lang, c.body), c.name)
		got := ""
		if err != nil {
			got = err.Error()
			if c.lang == "msl" {
				got = linecol.FindString(got)
			}
		}
		if got != c.want {
			t.Errorf("%s/%s: got %q, want %q (error %v)", c.lang, c.name, got, c.want, err)
		}
	}
}
