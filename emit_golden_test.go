package shaderopt

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/glsl"
	"shaderopt/internal/glslgen"
	"shaderopt/internal/ir"
	"shaderopt/internal/lower"
	"shaderopt/internal/msl"
)

const emitGoldenPath = "testdata/emit.golden"

// whilePrograms are the while-bearing sources of glslgen's
// TestRoundTripWhile and msl's TestRoundTripArraysAndWhile, whose
// conditions are pure, and one whose condition stores (an inlined call
// with a local), which takes the guard-variable form. No corpus variant
// contains an ir.While, so these are what pin both dialects' while
// emission.
var whilePrograms = []struct{ name, src string }{
	{"while/pure", `
out vec4 c;
void main() {
    float s = 1.0;
    while (s < 100.0) { s = s * 3.0; }
    c = vec4(s);
}
`},
	{"while/arrays", `#version 330
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
`},
	{"while/guard", `
uniform float k;
out vec4 c;
float twice(float x) { float y = x; y = y * 2.0; return y; }
void main() {
    float s = 1.0;
    while (twice(s) < k) { s = s * 3.0; }
    c = vec4(s);
}
`},
}

// emitDigests renders p through glslgen Desktop, glslgen ES and
// msl.Emit and returns the three texts' sha256 digests (an MSL error
// digests its message instead).
func emitDigests(p *ir.Program) string {
	sum := func(s string) string {
		h := sha256.Sum256([]byte(s))
		return hex.EncodeToString(h[:])
	}
	text, err := msl.Emit(p)
	if err != nil {
		text = "error: " + err.Error()
	}
	return sum(glslgen.Generate(p, glslgen.Desktop)) + " " + sum(glslgen.Generate(p, glslgen.ES)) + " " + sum(text)
}

// TestEmitGolden pins every byte the two C-family backends write: for
// each corpus shader, the base lowering and each distinct variant's
// OptimizeIR(Canonical()) are emitted as desktop GLSL, GLES and MSL, and
// the sha256 of each text is compared against testdata/emit.golden, one
// line per program. The while-bearing round-trip programs are appended,
// since no corpus variant contains a while loop. The whole corpus takes
// about a second, so -short runs it too. Regenerate after an intended
// codegen change with:
//
//	go test . -run TestEmitGolden -update
func TestEmitGolden(t *testing.T) {
	shaders, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, s := range shaders {
		h, err := core.Compile(s.Source, s.Name, s.Lang)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		b.WriteString(s.Name + " base " + emitDigests(h.IR()) + "\n")
		for _, v := range h.Variants().Variants {
			b.WriteString(s.Name + " " + v.Canonical().String() + " " + emitDigests(h.OptimizeIR(v.Canonical())) + "\n")
		}
	}
	for _, w := range whilePrograms {
		p, err := lower.Lower(glsl.MustParse(w.src), w.name)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b.WriteString(w.name + " base " + emitDigests(p) + "\n")
	}
	got := b.String()
	if *updateSnapshots {
		if err := os.WriteFile(emitGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(emitGoldenPath)
	if err != nil {
		t.Fatalf("read %s (run with -update to create): %v", emitGoldenPath, err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Errorf("%s has %d lines, emission gives %d", emitGoldenPath, len(wantLines), len(gotLines))
	}
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Errorf("line %d differs:\n got %s\nwant %s", i+1, gotLines[i], wantLines[i])
		}
	}
}

// TestEmitAllocationPins pins what one emission of megapost/s80's
// unoptimized lowering (the corpus's largest, max ID 1937) allocates in
// each dialect. The counts may fall; a rise means the shared walk
// allocates per operand or per declaration again. Before the two
// backends shared one walk they read 4608 (Desktop), 4607 (ES) and
// 3824 (MSL).
func TestEmitAllocationPins(t *testing.T) {
	s := corpus.ByName(corpus.MustLoad(), "megapost/s80")
	h, err := core.Compile(s.Source, s.Name, s.Lang)
	if err != nil {
		t.Fatal(err)
	}
	p := h.OptimizeIR(core.NoFlags)
	for _, c := range []struct {
		name string
		max  float64
		emit func()
	}{
		{"Desktop", 3803, func() { glslgen.Generate(p, glslgen.Desktop) }},
		{"ES", 3802, func() { glslgen.Generate(p, glslgen.ES) }},
		{"MSL", 3760, func() {
			if _, err := msl.Emit(p); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		n := testing.AllocsPerRun(10, c.emit)
		t.Logf("%s: %.0f allocations (pin %.0f)", c.name, n, c.max)
		if n > c.max {
			t.Errorf("%s emission of %s allocates %.0f objects, want at most %.0f", c.name, s.Name, n, c.max)
		}
	}
}
