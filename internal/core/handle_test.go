package core

import (
	"sync"
	"testing"

	"shaderopt/internal/passes"
)

const handleGLSL = `#version 330
uniform sampler2D tex;
uniform vec4 tint;
in vec2 uv;
out vec4 color;
void main() {
    vec4 acc = vec4(0.0);
    for (int i = 0; i < 3; i++) {
        acc += texture(tex, uv * (1.0 + float(i) * 0.1)) / 3.0;
    }
    color = acc * tint * 2.0 + acc * tint;
}
`

const handleWGSL = `
@group(0) @binding(0) var tex: texture_2d<f32>;
@group(0) @binding(1) var samp: sampler;

@fragment
fn main(@location(0) uv: vec2<f32>) -> @location(0) vec4<f32> {
    let g = dot(textureSample(tex, samp, uv).rgb, vec3<f32>(0.2126, 0.7152, 0.0722));
    return vec4<f32>(vec3<f32>(g), 1.0);
}
`

// TestHandleMatchesStringAPI checks a long-lived handle produces
// byte-identical artefacts to fresh one-shot compiles and to the string
// ToGLSL, for both frontends.
func TestHandleMatchesStringAPI(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		lang Lang
	}{
		{"glsl", handleGLSL, LangGLSL},
		{"wgsl", handleWGSL, LangWGSL},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h, err := Compile(tc.src, "h", LangAuto)
			if err != nil {
				t.Fatal(err)
			}
			if h.Lang != tc.lang {
				t.Fatalf("resolved lang = %v, want %v", h.Lang, tc.lang)
			}
			if h.Hash != HashSource(tc.src) {
				t.Error("source hash mismatch")
			}
			for _, flags := range []Flags{NoFlags, DefaultFlags, AllFlags, FlagUnroll | FlagGVN} {
				fresh, err := Compile(tc.src, "h", tc.lang)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := h.Optimize(flags), fresh.Optimize(flags); got != want {
					t.Errorf("flags %v: handle output differs from a fresh compile", flags)
				}
			}
			wantGLSL, err := ToGLSL(tc.src, "h", tc.lang)
			if err != nil {
				t.Fatal(err)
			}
			if got := h.GLSL(); got != wantGLSL {
				t.Error("handle GLSL differs from ToGLSL")
			}
			if (h.GLSL() == h.Source) != (tc.lang == LangGLSL) {
				t.Error("GLSL() should be the source text exactly for GLSL input")
			}

			fresh, err := Compile(tc.src, "h", tc.lang)
			if err != nil {
				t.Fatal(err)
			}
			wantVS := fresh.Variants()
			vs := h.Variants()
			if vs.Unique() != wantVS.Unique() {
				t.Fatalf("unique = %d, want %d", vs.Unique(), wantVS.Unique())
			}
			for _, flags := range []Flags{NoFlags, DefaultFlags, AllFlags} {
				if vs.VariantFor(flags).Source != wantVS.VariantFor(flags).Source {
					t.Errorf("flags %v: variant source differs", flags)
				}
			}
			if vs != h.Variants() {
				t.Error("Variants not cached: second call returned a fresh set")
			}
		})
	}
}

// TestHandleSingleFrontendParse is the compile-once invariant: one parse
// at Compile, zero for any number of derived operations.
func TestHandleSingleFrontendParse(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
	}{{"glsl", handleGLSL}, {"wgsl", handleWGSL}} {
		t.Run(tc.name, func(t *testing.T) {
			before := FrontendParses()
			h, err := Compile(tc.src, "h", LangAuto)
			if err != nil {
				t.Fatal(err)
			}
			if got := FrontendParses() - before; got != 1 {
				t.Fatalf("Compile performed %d frontend parses, want 1", got)
			}
			for i := 0; i < 3; i++ {
				h.Optimize(AllFlags)
				h.Variants()
				h.GLSL()
				h.IR()
			}
			if got := FrontendParses() - before; got != 1 {
				t.Fatalf("derived operations re-parsed: %d total parses, want 1", got)
			}
		})
	}
}

// TestHandleConcurrentUse exercises the lazy caches from many goroutines;
// run with -race to catch unsynchronized initialization.
func TestHandleConcurrentUse(t *testing.T) {
	h, err := Compile(handleWGSL, "h", LangAuto)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if h.Variants().Unique() < 1 {
				t.Error("no variants")
			}
			if h.GLSL() == "" {
				t.Error("empty GLSL")
			}
			if h.Optimize(AllFlags) == "" {
				t.Error("empty optimize")
			}
		}()
	}
	wg.Wait()
}

// TestHandleIRIsPrivateClone: mutating a returned program must not leak
// into later products of the same handle.
func TestHandleIRIsPrivateClone(t *testing.T) {
	h, err := Compile(handleGLSL, "h", LangAuto)
	if err != nil {
		t.Fatal(err)
	}
	want := h.Optimize(NoFlags)
	p := h.IR()
	// Scorch the clone: run the full pass stack on it.
	passes.Run(p, AllFlags)
	if got := h.Optimize(NoFlags); got != want {
		t.Error("handle output changed after caller mutated an IR() clone")
	}
}
