package crossc

import (
	"math"
	"strings"
	"testing"

	"shaderopt/internal/exec"
	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/lower"
)

const desktopSrc = `#version 330
uniform sampler2D tex;
uniform vec4 tint;
uniform float gain;
in vec2 uv;
out vec4 color;
void main() {
    vec4 acc = vec4(0.0);
    for (int i = 0; i < 4; i++) {
        acc += texture(tex, uv + vec2(float(i) * 0.01, 0.0));
    }
    if (gain > 0.5) { acc *= gain; }
    color = acc * tint / 4.0;
}
`

func TestToESProducesValidGLES(t *testing.T) {
	out, err := ToES(desktopSrc, "conv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out, "#version 300 es\n") {
		t.Errorf("missing ES version header:\n%s", out)
	}
	if !strings.Contains(out, "precision highp float;") {
		t.Errorf("missing precision qualifier:\n%s", out)
	}
	// The ES output must parse and lower again (drivers consume it).
	sh, err := glsl.Parse(out)
	if err != nil {
		t.Fatalf("ES output does not parse: %v\n%s", err, out)
	}
	if _, err := lower.Lower(sh, "reparsed"); err != nil {
		t.Fatalf("ES output does not lower: %v", err)
	}
}

func TestToESNameLossArtefact(t *testing.T) {
	out, err := ToES(desktopSrc, "conv")
	if err != nil {
		t.Fatal(err)
	}
	// Original names are gone — the §III-C(d) artefact.
	for _, lost := range []string{"tint", "gain", "acc"} {
		if strings.Contains(out, lost) {
			t.Errorf("name %q survived the ES conversion:\n%s", lost, out)
		}
	}
}

// TestToESSemanticsPreserved runs the original and the converted shader
// and requires identical outputs (the conversion is exact; only names and
// formatting change).
func TestToESSemanticsPreserved(t *testing.T) {
	out, err := ToES(desktopSrc, "conv")
	if err != nil {
		t.Fatal(err)
	}
	origProg, err := lower.Lower(glsl.MustParse(desktopSrc), "orig")
	if err != nil {
		t.Fatal(err)
	}
	convProg, err := lower.Lower(glsl.MustParse(out), "conv")
	if err != nil {
		t.Fatal(err)
	}

	// Uniform/input names differ; map them by declaration order.
	env := func(p *ir.Program) *exec.Env {
		e := &exec.Env{
			Uniforms: map[string]*ir.ConstVal{},
			Inputs:   map[string]*ir.ConstVal{},
			Samplers: map[string]exec.Sampler{},
		}
		uvals := []*ir.ConstVal{nil, ir.FloatConst(0.2, 0.4, 0.6, 0.8), ir.FloatConst(0.75)}
		for i, u := range p.Uniforms {
			if u.Type.IsSampler() {
				e.Samplers[u.Name] = exec.DefaultSampler{}
				continue
			}
			e.Uniforms[u.Name] = uvals[i]
		}
		for _, in := range p.Inputs {
			e.Inputs[in.Name] = ir.FloatConst(0.3, 0.7)
		}
		return e
	}
	r1, err := exec.Run(origProg, env(origProg))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := exec.Run(convProg, env(convProg))
	if err != nil {
		t.Fatal(err)
	}
	var v1, v2 *ir.ConstVal
	for _, v := range r1.Outputs {
		v1 = v
	}
	for _, v := range r2.Outputs {
		v2 = v
	}
	if v1 == nil || v2 == nil {
		t.Fatal("missing outputs")
	}
	for i := 0; i < v1.Len(); i++ {
		if math.Abs(v1.F[i]-v2.F[i]) > 1e-12 {
			t.Errorf("component %d: %v vs %v", i, v1.F[i], v2.F[i])
		}
	}
}

func TestWhileSurvivesRoundTrip(t *testing.T) {
	src := `#version 330
uniform float k;
out vec4 c;
void main() {
    float s = 1.0;
    while (s < k) { s = s * 2.0; }
    c = vec4(s);
}
`
	out, err := ToES(src, "w")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "while") {
		t.Errorf("while loop lost:\n%s", out)
	}
}
