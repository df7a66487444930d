// Package crossc is the mobile shader conversion pipeline: desktop GLSL →
// OpenGL ES GLSL, standing in for the paper's glslang + SPIRV-Cross tool
// chain (§III-C(d): "Having passed through so many compilation tools
// means the code picked up slight quirks and artefacts from each one in
// turn, and was often very different from the original desktop GLSL
// shader"). The conversion keeps every instruction of the lowered
// program and renames its interface and variable slots to the synthetic
// identifiers a SPIR-V module without debug info leaves behind (u1, in2,
// out3, v4, ...), then generates ES source, so the artefacts here are
// real consequences of the pipeline: name loss, fully flattened
// temporaries, ES precision qualifiers, and re-canonicalized structure.
//
// Reingest is the other direction a driver runtime takes: it rebuilds a
// program through the MSL or SPIR-V backend before the vendor JIT.
package crossc

import (
	"fmt"
	"strconv"

	"shaderopt/internal/glsl"
	"shaderopt/internal/glslgen"
	"shaderopt/internal/ir"
	"shaderopt/internal/lower"
)

// ToES converts desktop GLSL fragment shader source into GLES 3.0 source.
// ToES(src) is exactly ESFromIR of src's lowering — an equivalence the
// session measurement pipeline relies on to share one parse between the
// desktop lowering and the conversion (and pins corpus-wide through the
// harness-equivalence suite); keep the two paths in lockstep.
func ToES(src, name string) (string, error) {
	sh, err := glsl.Parse(src)
	if err != nil {
		return "", fmt.Errorf("crossc front end: %w", err)
	}
	prog, err := lower.Lower(sh, name)
	if err != nil {
		return "", fmt.Errorf("crossc front end: %w", err)
	}
	return ESFromIR(prog, name)
}

// ESFromIR converts an already-lowered program into GLES 3.0 source,
// skipping the GLSL front end — the entry point for callers holding a
// compiled IR handle. prog is not modified.
//
// The slots are numbered 1, 2, ... across uniforms, then inputs, then
// Vars (outputs and locals interleaved in declaration order), and
// Outputs is rebuilt in Vars order: the ids and layout a SPIR-V module
// assigns when it is emitted and decoded again.
func ESFromIR(prog *ir.Program, name string) (string, error) {
	globals := make(map[*ir.Global]*ir.Global, len(prog.Uniforms)+len(prog.Inputs))
	vars := make(map[*ir.Var]*ir.Var, len(prog.Vars))
	id := 0
	rename := func(prefix string) string {
		id++
		return prefix + strconv.Itoa(id)
	}
	for _, g := range prog.Uniforms {
		globals[g] = &ir.Global{Name: rename("u"), Type: g.Type}
	}
	for _, g := range prog.Inputs {
		globals[g] = &ir.Global{Name: rename("in"), Type: g.Type}
	}
	for _, v := range prog.Vars {
		prefix := "v"
		if v.IsOutput {
			prefix = "out"
		}
		vars[v] = &ir.Var{Name: rename(prefix), Type: v.Type, IsOutput: v.IsOutput}
	}
	es, ok := prog.CloneRemapped(globals, vars)
	if !ok {
		return "", fmt.Errorf("crossc back end: program references an undeclared slot")
	}
	es.Outputs = es.Outputs[:0]
	for _, v := range es.Vars {
		if v.IsOutput {
			es.Outputs = append(es.Outputs, v)
		}
	}
	es.Name, es.Version = name, "300 es"
	src := glslgen.Generate(es, glslgen.ES)
	es.Release()
	return src, nil
}
