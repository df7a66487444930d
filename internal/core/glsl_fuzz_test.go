package core

// Native Go fuzz target for the desktop GLSL study pipeline, the PR 3
// WGSL FuzzCompileRoundTrip's missing sibling: any GLSL the frontend
// accepts must survive the full pipeline — the lowered IR verifies, and
// the generated desktop GLSL (the interchange form every simulated
// driver and the measurement harness consume) re-parses and re-lowers
// cleanly. A break here is exactly the failure the measurement pipeline
// cannot tolerate: a variant text the drivers reject mid-sweep.
//
// Seed corpora live under testdata/fuzz/FuzzGLSLCompileRoundTrip/
// (checked in) and are topped up here with corpus-flavoured snippets.
// CI runs a short -fuzztime smoke; `go test -fuzz FuzzGLSLCompileRoundTrip
// ./internal/core` runs an open-ended campaign.

import (
	"testing"

	"shaderopt/internal/glsl"
	"shaderopt/internal/glslgen"
	"shaderopt/internal/lower"
	"shaderopt/internal/passes"
)

func FuzzGLSLCompileRoundTrip(f *testing.F) {
	for _, s := range []string{
		"#version 330\nin vec2 uv;\nout vec4 c;\nvoid main() { c = vec4(uv, 0.0, 1.0); }",
		"#version 330\nuniform sampler2D t;\nuniform float k;\nin vec2 uv;\nout vec4 c;\nvoid main() {\n  vec4 acc = vec4(0.0);\n  for (int i = 0; i < 3; ++i) { acc += texture(t, uv + float(i) * k); }\n  c = acc / 3.0;\n}",
		"#version 330\nuniform mat3 m;\nin vec3 p;\nout vec4 c;\nvoid main() { c = vec4(m * p, 1.0); }",
		"#version 330\nin vec2 uv;\nout vec4 c;\nfloat lum(vec3 x) { return dot(x, vec3(0.299, 0.587, 0.114)); }\nvoid main() {\n  vec3 v = vec3(uv, 0.5);\n  if (lum(v) > 0.5) { discard; }\n  c = vec4(v, 1.0);\n}",
		"#version 330\nout vec4 c;\nvoid main() { c = vec4(1.0 / 3.0); }",
		"void main() { }",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		h, err := Compile(src, "fuzz", LangAuto)
		if err != nil {
			return // rejected inputs just must not panic
		}
		prog := h.IR()
		if err := prog.Verify(); err != nil {
			t.Fatalf("accepted GLSL lowered to invalid IR: %v\nsource:\n%s", err, src)
		}
		// The all-flags-off pipeline baseline: the variant text a sweep
		// would hand every driver and the harness.
		passes.Run(prog, passes.NoFlags)
		out := glslgen.Generate(prog, glslgen.Desktop)
		sh, err := glsl.Parse(out)
		if err != nil {
			t.Fatalf("generated GLSL does not re-parse: %v\nsource:\n%s\ngenerated:\n%s", err, src, out)
		}
		if _, err := lower.Lower(sh, "fuzz-reparse"); err != nil {
			t.Fatalf("generated GLSL does not re-lower: %v\nsource:\n%s\ngenerated:\n%s", err, src, out)
		}
	})
}
