package crossc_test

import (
	"strings"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/crossc"
	"shaderopt/internal/gpu"
	"shaderopt/internal/ir"
	"shaderopt/internal/passes"
)

// TestTranslatingReingestOnlyReadsInput pins the ingest-ownership rule the
// session compile path relies on: MSL and SPIR-V ingestion serialize the
// input and re-ingest it into a fresh program, leaving the input exactly
// as it was, so a shared canonical lowering needs no defensive clone
// before a translating platform's compile. It covers the canonical driver
// lowering of every corpus shader's driver-visible text and of its GLES
// conversion.
func TestTranslatingReingestOnlyReadsInput(t *testing.T) {
	shaders, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	state := func(p *ir.Program) string {
		var b strings.Builder
		p.PrintAlpha(&b)
		return core.FingerprintIR(p) + "\n" + b.String()
	}
	canonical := func(name, src string) *ir.Program {
		t.Helper()
		prog, err := gpu.FrontEnd(src, "driver")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		passes.Canonicalize(prog)
		return prog
	}
	for _, sh := range shaders {
		h, err := core.Compile(sh.Source, sh.Name, sh.Lang)
		if err != nil {
			t.Fatal(err)
		}
		es, err := crossc.ToES(h.GLSL(), sh.Name)
		if err != nil {
			t.Fatalf("%s: %v", sh.Name, err)
		}
		for _, prog := range []*ir.Program{canonical(sh.Name, h.GLSL()), canonical(sh.Name, es)} {
			before := state(prog)
			for _, format := range []string{crossc.IngestMSL, crossc.IngestSPIRV} {
				re, err := crossc.Reingest(prog, "driver", format)
				if err != nil {
					t.Fatalf("%s %s: %v", sh.Name, format, err)
				}
				if re == prog {
					t.Errorf("%s %s: returned its input, want a fresh program", sh.Name, format)
				}
				if state(prog) != before {
					t.Errorf("%s %s: re-ingest changed its input", sh.Name, format)
				}
			}
		}
	}
}
