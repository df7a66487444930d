// Package msl is the Metal Shading Language backend and frontend: Emit
// renders an IR program as an MSL fragment function (the naga/SPIRV-Cross
// shape: a [[stage_in]] struct, a constant uniform buffer struct, paired
// texture/sampler arguments, and a wrapped entry point named main0), and
// Compile parses that dialect back into the shared IR through the checked
// GLSL AST like the WGSL and HLSL frontends. Its lexer is a thin layer
// over the shared internal/lex scanner that skips # lines and keeps a
// trailing EOF token; its Grammar and module-level declarations sit on the
// parser of internal/bind, which also translates every shared node with
// MSL's scalar int→float promotion. The frontend keeps only what is MSL's
// own: its Grammar (?:, texture methods, %=, array<T, N>{...} literals),
// structs and the [[...]] interface (the stage_in struct flattens into
// inputs, the constant buffer into uniforms, an output struct into
// outputs), type resolution, the rename and constructor tables, and MSL's
// own calls — .sample/.sample_compare/.read, discard_fragment,
// interface-struct members and output-struct stores.
//
// The emitter uses internal/glslgen's Walk, the one IR→text walk both
// C-family backends share, as its Spelling, so the §III-C verbosity
// artefacts (one temporary per instruction, splatted constants,
// element-insert chains) survive translation. This package writes only
// what is Metal's own: the prologue with its structs and entry signature,
// types and textures, calls, matrix columns and the helper prelude. GLSL
// builtins without an exact native MSL spelling (mod, radians, degrees —
// GLSL mod is floor-based where C++ fmod truncates) are emitted as
// glsl_-prefixed template helpers; the frontend maps those helper names
// straight back onto the IR builtins without translating their bodies, so
// a round trip reconstructs the same call and renders bit-identically.
package msl

import (
	"fmt"
	"strconv"
	"strings"

	"shaderopt/internal/glslgen"
	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// EntryName is the generated fragment function name, after naga's main0.
const EntryName = "main0"

// Emit renders the program as MSL source.
func Emit(p *ir.Program) (string, error) {
	g := &mslgen{
		smpNames: map[*ir.Global]string{},
		isInput:  make(map[*ir.Global]bool, len(p.Inputs)),
	}
	g.Init(p, g)
	g.run()
	out, err := g.Text()
	if err != nil {
		return "", fmt.Errorf("msl: %w", err)
	}
	return out, nil
}

// mslgen is the MSL Spelling over its own Walk.
type mslgen struct {
	glslgen.Walk
	smpNames map[*ir.Global]string // sampler uniform -> sampler-state arg name
	isInput  map[*ir.Global]bool

	inVar, uVar, outVar string
	inStruct, uStruct   string
	outStruct           string
}

func (g *mslgen) fail(format string, args ...any) {
	g.Fail(fmt.Errorf(format, args...))
}

func (g *mslgen) run() {
	p := g.P
	for _, in := range p.Inputs {
		g.isInput[in] = true
	}

	// Claim interface names first so struct members keep the IR spellings
	// and the synthesized instance/entry names move aside instead.
	var texGlobals, valGlobals []*ir.Global
	for _, u := range p.Uniforms {
		name := g.GlobalName(u)
		if u.Type.IsSampler() {
			texGlobals = append(texGlobals, u)
			g.smpNames[u] = g.Unique(name + "Smp")
		} else {
			valGlobals = append(valGlobals, u)
		}
	}
	for _, in := range p.Inputs {
		g.GlobalName(in)
	}
	for _, v := range p.Vars {
		g.VarName(v)
	}
	g.inStruct = g.Unique(EntryName + "_in")
	g.uStruct = g.Unique(EntryName + "_uniforms")
	g.outStruct = g.Unique(EntryName + "_out")
	g.inVar = g.Unique("in")
	g.uVar = g.Unique("u")
	g.outVar = g.Unique("out0")

	g.Line("#include <metal_stdlib>")
	g.Line("#include <simd/simd.h>")
	g.Line()
	g.Line("using namespace metal;")

	g.helperPrelude()

	if len(p.Inputs) > 0 {
		g.Line()
		g.Line("struct ", g.inStruct)
		g.Open()
		for i, in := range p.Inputs {
			g.Line(g.Type(in.Type), " ", g.GlobalName(in), " [[user(locn", strconv.Itoa(i), ")]];")
		}
		g.Close("};")
	}
	if len(valGlobals) > 0 {
		g.Line()
		g.Line("struct ", g.uStruct)
		g.Open()
		for _, u := range valGlobals {
			g.Line(g.Type(u.Type), " ", g.GlobalName(u), ";")
		}
		g.Close("};")
	}
	multiOut := len(p.Outputs) > 1
	if multiOut {
		g.Line()
		g.Line("struct ", g.outStruct)
		g.Open()
		for i, v := range p.Outputs {
			g.Line(g.Type(v.Type), " ", g.VarName(v), "_0 [[color(", strconv.Itoa(i), ")]];")
		}
		g.Close("};")
	}

	// Entry signature.
	var params []string
	if len(p.Inputs) > 0 {
		params = append(params, g.inStruct+" "+g.inVar+" [[stage_in]]")
	}
	if len(valGlobals) > 0 {
		params = append(params, "constant "+g.uStruct+"& "+g.uVar+" [[buffer(0)]]")
	}
	for i, t := range texGlobals {
		params = append(params, g.textureType(t.Type)+" "+g.GlobalName(t)+" [[texture("+strconv.Itoa(i)+")]]")
		params = append(params, "sampler "+g.smpNames[t]+" [[sampler("+strconv.Itoa(i)+")]]")
	}
	ret := "void"
	switch {
	case multiOut:
		ret = g.outStruct
	case len(p.Outputs) == 1:
		ret = g.Type(p.Outputs[0].Type)
	}
	g.Line()
	g.Line("fragment ", ret, " ", EntryName, "(", strings.Join(params, ", "), ")")
	g.Open()
	g.Body(true) // outputs are locals the entry returns

	switch {
	case multiOut:
		g.Line(g.outStruct, " ", g.outVar, ";")
		for _, v := range p.Outputs {
			g.Line(g.outVar, ".", g.VarName(v), "_0 = ", g.VarName(v), ";")
		}
		g.Line("return ", g.outVar, ";")
	case len(p.Outputs) == 1:
		g.Line("return ", g.VarName(p.Outputs[0]), ";")
	}
	g.Close("}")
}

// helperPrelude emits template helpers for the GLSL builtins the body uses
// that have no exact native MSL spelling. The frontend skips template
// definitions and maps the glsl_ names back to IR builtins, so helper
// bodies are documentation for a real Metal compiler, not part of the
// round trip.
func (g *mslgen) helperPrelude() {
	need := map[string]bool{}
	g.P.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpCall {
			switch in.Sym {
			case "mod", "radians", "degrees":
				need[in.Sym] = true
			}
		}
	})
	if need["mod"] {
		g.Line()
		g.Line("template <typename T, typename U>")
		g.Line("static inline T glsl_mod(T x, U y) { return x - y * floor(x / y); }")
	}
	if need["radians"] {
		g.Line()
		g.Line("template <typename T>")
		g.Line("static inline T glsl_radians(T v) { return (v * 3.14159265358979323846) / 180.0; }")
	}
	if need["degrees"] {
		g.Line()
		g.Line("template <typename T>")
		g.Line("static inline T glsl_degrees(T v) { return (v * 180.0) / 3.14159265358979323846; }")
	}
}

func (g *mslgen) Reserved(name string) bool { return reservedWord(name) }

// Global renders a read of an interface global: struct member access
// for stage_in inputs and buffer uniforms, the bare argument name for
// textures.
func (g *mslgen) Global(gl *ir.Global) string {
	name := g.GlobalName(gl)
	switch {
	case g.isInput[gl]:
		return g.inVar + "." + name
	case gl.Type.IsSampler():
		return name
	default:
		return g.uVar + "." + name
	}
}

func (g *mslgen) Discard() string { return "discard_fragment();" }

func (g *mslgen) Xor() string { return "!=" } // C++ has no ^^; != is exact XOR on bools

// --- types ---

// Type renders the MSL spelling of a sem type.
func (g *mslgen) Type(t sem.Type) string {
	if t.IsArray() {
		return "array<" + g.Type(t.Elem()) + ", " + strconv.Itoa(t.ArrayLen) + ">"
	}
	switch {
	case t.IsSampler():
		return g.textureType(t)
	case t.IsMatrix():
		return "float" + strconv.Itoa(t.Mat) + "x" + strconv.Itoa(t.Mat)
	case t.IsVector():
		switch t.Kind {
		case sem.KindFloat:
			return "float" + strconv.Itoa(t.Vec)
		case sem.KindInt:
			return "int" + strconv.Itoa(t.Vec)
		case sem.KindBool:
			return "bool" + strconv.Itoa(t.Vec)
		}
	case t.IsScalar():
		switch t.Kind {
		case sem.KindFloat:
			return "float"
		case sem.KindInt:
			return "int"
		case sem.KindBool:
			return "bool"
		}
	}
	g.fail("type %s has no MSL spelling", t)
	return "float"
}

// textureType renders the MSL texture type for a sampler dimensionality.
func (g *mslgen) textureType(t sem.Type) string {
	switch t.Dim {
	case sem.Dim2D:
		return "texture2d<float>"
	case sem.Dim3D:
		return "texture3d<float>"
	case sem.DimCube:
		return "texturecube<float>"
	case sem.Dim2DShadow:
		return "depth2d<float>"
	case sem.Dim2DArray:
		return "texture2d_array<float>"
	}
	g.fail("sampler dimensionality %q has no MSL texture type", t.Dim)
	return "texture2d<float>"
}

// Decl spells every type, arrays too, before the name.
func (g *mslgen) Decl(t sem.Type) (typ, arr string) { return g.Type(t), "" }

// --- calls ---

// Call renders a builtin call with its MSL spelling: native where the
// semantics line up 1:1, a glsl_ helper otherwise, and the texture method
// forms for sampling ops.
func (g *mslgen) Call(in *ir.Instr, inline map[*ir.Instr]bool) string {
	name := in.Sym
	switch in.Sym {
	case "texture", "texture2D", "textureCube", "textureLod", "texelFetch":
		return g.textureExpr(in, inline)
	case "inversesqrt":
		name = "rsqrt"
	case "dFdx":
		name = "dfdx"
	case "dFdy":
		name = "dfdy"
	case "atan":
		if len(in.Args) == 2 {
			name = "atan2"
		}
	case "mod":
		name = "glsl_mod"
	case "radians":
		name = "glsl_radians"
	case "degrees":
		name = "glsl_degrees"
	}
	return name + "(" + g.Args(in.Args, inline) + ")"
}

// textureExpr renders sampling ops as texture method calls.
func (g *mslgen) textureExpr(in *ir.Instr, inline map[*ir.Instr]bool) string {
	samp := in.Args[0]
	if samp.Op != ir.OpUniform || !samp.Type.IsSampler() {
		g.fail("texture call %%%d does not sample a uniform sampler", in.ID)
		return "float4(0.0)"
	}
	tex := g.GlobalName(samp.Global)
	smp := g.smpNames[samp.Global]
	coord := g.Arg(in.Args[1], inline)
	co := g.Operand(in.Args[1], inline)
	dim := samp.Type.Dim

	switch in.Sym {
	case "texelFetch":
		// The subset's texelFetch carries the lod at the coordinate's
		// width; Metal's read takes a scalar, so emit the first component
		// (the only one the semantics consult).
		lod := g.Arg(in.Args[2], inline)
		if in.Args[2].Type.IsVector() {
			lod = g.Operand(in.Args[2], inline) + ".x"
		}
		uvec := "uint2"
		if in.Args[1].Type.IsVector() && in.Args[1].Type.Vec == 3 {
			uvec = "uint3"
		}
		return tex + ".read(" + uvec + "(" + coord + "), " + lod + ")"
	case "textureLod":
		lod := g.Arg(in.Args[2], inline)
		return tex + ".sample(" + smp + ", " + coord + ", level(" + lod + "))"
	}
	// texture / texture2D / textureCube
	switch dim {
	case sem.Dim2DShadow:
		return tex + ".sample_compare(" + smp + ", " + co + ".xy, " + co + ".z)"
	case sem.Dim2DArray:
		return tex + ".sample(" + smp + ", " + co + ".xy, uint(" + co + ".z))"
	}
	if len(in.Args) == 3 {
		return tex + ".sample(" + smp + ", " + coord + ", bias(" + g.Arg(in.Args[2], inline) + "))"
	}
	return tex + ".sample(" + smp + ", " + coord + ")"
}

// --- matrices and arrays ---

// Construct renders a matrix from column vectors (MSL matrices construct
// from columns, not flat scalar lists) and an array as a braced list.
func (g *mslgen) Construct(in *ir.Instr, inline map[*ir.Instr]bool) string {
	if in.Type.IsArray() {
		return g.Type(in.Type) + "{" + g.Args(in.Args, inline) + "}"
	}
	return g.matrixConstruct(in, inline)
}

// matrixConstruct renders a matrix constructor from column vectors. Args
// that are full columns pass through; scalar runs and misaligned vectors
// are split into components (operand renderings are refs, so duplication
// is safe).
func (g *mslgen) matrixConstruct(in *ir.Instr, inline map[*ir.Instr]bool) string {
	n := in.Type.Mat
	colType := g.Type(sem.VecType(sem.KindFloat, n))

	// Fast path: args are exactly the n column vectors.
	if len(in.Args) == n {
		direct := true
		for _, a := range in.Args {
			if !(a.Type.IsVector() && a.Type.Vec == n) {
				direct = false
			}
		}
		if direct {
			return g.Type(in.Type) + "(" + g.Args(in.Args, inline) + ")"
		}
	}

	// General path: flatten every argument to scalar component renderings,
	// then regroup into columns.
	var comps []string
	for _, a := range in.Args {
		switch {
		case a.Type.IsScalar():
			comps = append(comps, g.Arg(a, inline))
		case a.Type.IsVector():
			base := g.Operand(a, inline)
			for j := 0; j < a.Type.Vec; j++ {
				comps = append(comps, base+"."+string("xyzw"[j]))
			}
		default:
			g.fail("matrix constructor argument of type %s", a.Type)
			return g.Type(in.Type) + "(0.0)"
		}
	}
	if len(comps) != n*n {
		g.fail("matrix constructor with %d components, want %d", len(comps), n*n)
		return g.Type(in.Type) + "(0.0)"
	}
	cols := make([]string, n)
	for c := 0; c < n; c++ {
		cols[c] = colType + "(" + strings.Join(comps[c*n:(c+1)*n], ", ") + ")"
	}
	return g.Type(in.Type) + "(" + strings.Join(cols, ", ") + ")"
}

// Const renders a matrix constant as columns and an array constant as a
// braced list.
func (g *mslgen) Const(t sem.Type, c *ir.ConstVal) string {
	if t.IsArray() {
		return g.Type(t) + "{" + g.Elems(t, c) + "}"
	}
	n := t.Mat
	colType := g.Type(sem.VecType(sem.KindFloat, n))
	cols := make([]string, n)
	for ci := range cols {
		cols[ci] = colType + "(" + glslgen.Lits(t.Kind, c, ci*n, ci*n+n) + ")"
	}
	return g.Type(t) + "(" + strings.Join(cols, ", ") + ")"
}
