package passes_test

// Per-step golden: for every corpus shader, the sha256 of the desktop
// GLSL generated after each flagged step applied alone to the Prepared
// lowering. It pins every rewriting pass on its own, independently of
// the enumeration that composes them, so a pass change that moves any
// output shows up as a named (shader, step) mismatch.
//
// Regenerate after an intentional change with:
//
//	go test ./internal/passes -run TestStepsGolden -update

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/glslgen"
	"shaderopt/internal/passes"
)

const stepsGolden = "testdata/steps.golden"

// stepsLine digests one corpus shader's output under each flagged step
// alone, in FlaggedSteps order, as one golden line.
func stepsLine(sh *corpus.Shader) (string, error) {
	h, err := core.Compile(sh.Source, sh.Name, sh.Lang)
	if err != nil {
		return "", err
	}
	pre := h.IR()
	passes.Prepare(pre)
	var b strings.Builder
	b.WriteString(sh.Name)
	for _, st := range passes.FlaggedSteps() {
		p := pre.Clone()
		st.Run(p)
		passes.Finish(p)
		fmt.Fprintf(&b, " %s=%x", passes.FlagName(st.Flag), sha256.Sum256([]byte(glslgen.Generate(p, glslgen.Desktop))))
	}
	return b.String(), nil
}

// TestStepsGolden checks every corpus shader, -short included: each step
// runs once per shader, so the whole corpus takes about a second.
func TestStepsGolden(t *testing.T) {
	shaders, err := corpus.Load()
	if err != nil {
		t.Fatal(err)
	}
	lines := make([]string, len(shaders))
	for i, sh := range shaders {
		if lines[i], err = stepsLine(sh); err != nil {
			t.Fatalf("%s: %v", sh.Name, err)
		}
	}
	if *update {
		if err := os.WriteFile(stepsGolden, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(stepsGolden)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(want) != len(lines) {
		t.Fatalf("golden has %d shaders, corpus has %d", len(want), len(lines))
	}
	for i, line := range lines {
		if line == want[i] {
			continue
		}
		got, exp := strings.Fields(line), strings.Fields(want[i])
		if got[0] != exp[0] {
			t.Errorf("line %d: shader %s, golden has %s", i+1, got[0], exp[0])
			continue
		}
		for k := 1; k < len(got) && k < len(exp); k++ {
			if got[k] != exp[k] {
				step, _, _ := strings.Cut(got[k], "=")
				t.Errorf("%s: output of step %s changed", got[0], step)
			}
		}
	}
}
