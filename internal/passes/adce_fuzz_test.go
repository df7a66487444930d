package passes_test

import (
	"math"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/exec"
	"shaderopt/internal/harness"
	"shaderopt/internal/ir"
	"shaderopt/internal/passes"
)

// whileSeeds are the while-bearing programs the root package's emit
// golden pins (no corpus shader has a while loop): pure conditions, and
// a condition that stores through an inlined call's local.
var whileSeeds = []string{`
out vec4 c;
void main() {
    float s = 1.0;
    while (s < 100.0) { s = s * 3.0; }
    c = vec4(s);
}
`, `#version 330
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
`, `
uniform float k;
out vec4 c;
float twice(float x) { float y = x; y = y * 2.0; return y; }
void main() {
    float s = 1.0;
    while (twice(s) < k) { s = s * 3.0; }
    c = vec4(s);
}
`}

// FuzzADCEPreservesOutputs checks ADCE's semantics for anything
// core.Compile accepts: after Canonicalize and ADCE the program renders
// exactly like its base under the harness's default inputs, and discards
// alike. A base whose run fails (exec's step limit bounds every run) has
// nothing to compare. Seeds are the corpus sources, the while programs
// and the dead-body while loops. CI runs a short -fuzztime smoke; `go test
// -fuzz FuzzADCEPreservesOutputs ./internal/passes` runs a campaign.
func FuzzADCEPreservesOutputs(f *testing.F) {
	shaders, err := corpus.Load()
	if err != nil {
		f.Fatal(err)
	}
	for _, sh := range shaders {
		f.Add(sh.Source)
	}
	for _, src := range append(whileSeeds, passes.DeadBodyWhiles...) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		h, err := core.Compile(src, "fuzz", core.LangAuto)
		if err != nil {
			return
		}
		base := h.IR()
		env := harness.DefaultEnv(base)
		want, err := exec.Run(base, env)
		if err != nil {
			return
		}
		p := h.IR()
		passes.Canonicalize(p)
		passes.ADCE(p)
		if err := p.Verify(); err != nil {
			t.Fatalf("IR after ADCE invalid: %v\nsource:\n%s\nIR:\n%s", err, src, p)
		}
		got, err := exec.Run(p, env)
		if err != nil {
			t.Fatalf("run after ADCE: %v\nsource:\n%s\nIR:\n%s", err, src, p)
		}
		if got.Discarded != want.Discarded {
			t.Fatalf("discarded %v after ADCE, %v before\nsource:\n%s\nIR:\n%s", got.Discarded, want.Discarded, src, p)
		}
		for name, w := range want.Outputs {
			if g := got.Outputs[name]; !sameBits(g, w) {
				t.Fatalf("output %s = %v after ADCE, %v before\nsource:\n%s\nIR:\n%s", name, g, w, src, p)
			}
		}
	})
}

// sameBits reports whether two rendered values are equal component by
// component, a NaN equal to any NaN.
func sameBits(a, b *ir.ConstVal) bool {
	if a == nil || a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		x, y := a.Float(i), b.Float(i)
		if x != y && !(math.IsNaN(x) && math.IsNaN(y)) {
			return false
		}
	}
	return true
}
