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
// The emitter mirrors internal/glslgen's walk — one temporary per
// instruction, splatted constants, element-insert chains — so the §III-C
// verbosity artefacts survive translation. GLSL builtins without an exact
// native MSL spelling (mod, radians, degrees — GLSL mod is floor-based
// where C++ fmod truncates) are emitted as glsl_-prefixed template
// helpers; the frontend maps those helper names straight back onto the IR
// builtins without translating their bodies, so a round trip reconstructs
// the same call and renders bit-identically.
package msl

import (
	"fmt"
	"strconv"
	"strings"

	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// EntryName is the generated fragment function name, after naga's main0.
const EntryName = "main0"

// Emit renders the program as MSL source.
func Emit(p *ir.Program) (string, error) {
	// Every global, variable and instruction may take a name.
	n := len(p.Uniforms) + len(p.Inputs) + len(p.Vars) + p.MaxID()
	g := &mslgen{
		p:        p,
		names:    make(map[any]string, n),
		used:     make(map[string]bool, n),
		smpNames: map[*ir.Global]string{},
		isInput:  make(map[*ir.Global]bool, len(p.Inputs)),
	}
	out := g.run()
	if g.err != nil {
		return "", g.err
	}
	return out, nil
}

type mslgen struct {
	p      *ir.Program
	sb     strings.Builder
	indent int
	err    error

	names    map[any]string // *ir.Var / *ir.Global / *ir.Instr -> MSL name
	used     map[string]bool
	suffix   map[string]int        // base -> last suffix unique gave out for it; nil until one is
	smpNames map[*ir.Global]string // sampler uniform -> sampler-state arg name
	isInput  map[*ir.Global]bool

	inVar, uVar, outVar string
	inStruct, uStruct   string
	outStruct           string
}

func (g *mslgen) fail(format string, args ...any) {
	if g.err == nil {
		g.err = fmt.Errorf("msl: "+format, args...)
	}
}

func (g *mslgen) run() string {
	for _, in := range g.p.Inputs {
		g.isInput[in] = true
	}

	// Claim interface names first so struct members keep the IR spellings
	// and the synthesized instance/entry names move aside instead.
	var texGlobals, valGlobals []*ir.Global
	for _, u := range g.p.Uniforms {
		g.globalName(u)
		if u.Type.IsSampler() {
			texGlobals = append(texGlobals, u)
			g.smpNames[u] = g.unique(g.names[u] + "Smp")
		} else {
			valGlobals = append(valGlobals, u)
		}
	}
	for _, in := range g.p.Inputs {
		g.globalName(in)
	}
	for _, v := range g.p.Vars {
		g.varName(v)
	}
	g.inStruct = g.unique(EntryName + "_in")
	g.uStruct = g.unique(EntryName + "_uniforms")
	g.outStruct = g.unique(EntryName + "_out")
	g.inVar = g.unique("in")
	g.uVar = g.unique("u")
	g.outVar = g.unique("out0")

	g.line("#include <metal_stdlib>")
	g.line("#include <simd/simd.h>")
	g.line()
	g.line("using namespace metal;")

	g.helperPrelude()

	if len(g.p.Inputs) > 0 {
		g.line()
		g.line("struct ", g.inStruct)
		g.line("{")
		g.indent++
		for i, in := range g.p.Inputs {
			g.line(g.declString(g.names[in], in.Type), " [[user(locn", strconv.Itoa(i), ")]];")
		}
		g.indent--
		g.line("};")
	}
	if len(valGlobals) > 0 {
		g.line()
		g.line("struct ", g.uStruct)
		g.line("{")
		g.indent++
		for _, u := range valGlobals {
			g.line(g.declString(g.names[u], u.Type), ";")
		}
		g.indent--
		g.line("};")
	}
	multiOut := len(g.p.Outputs) > 1
	if multiOut {
		g.line()
		g.line("struct ", g.outStruct)
		g.line("{")
		g.indent++
		for i, v := range g.p.Outputs {
			g.line(g.declString(g.names[v]+"_0", v.Type), " [[color(", strconv.Itoa(i), ")]];")
		}
		g.indent--
		g.line("};")
	}

	// Entry signature.
	var params []string
	if len(g.p.Inputs) > 0 {
		params = append(params, g.inStruct+" "+g.inVar+" [[stage_in]]")
	}
	if len(valGlobals) > 0 {
		params = append(params, "constant "+g.uStruct+"& "+g.uVar+" [[buffer(0)]]")
	}
	for i, t := range texGlobals {
		params = append(params, g.textureType(t.Type)+" "+g.names[t]+" [[texture("+strconv.Itoa(i)+")]]")
		params = append(params, "sampler "+g.smpNames[t]+" [[sampler("+strconv.Itoa(i)+")]]")
	}
	ret := "void"
	switch {
	case multiOut:
		ret = g.outStruct
	case len(g.p.Outputs) == 1:
		ret = g.typeName(g.p.Outputs[0].Type)
	}
	g.line()
	g.line("fragment ", ret, " ", EntryName, "(", strings.Join(params, ", "), ")")
	g.line("{")
	g.indent++

	counters := map[*ir.Var]bool{}
	g.p.Body.WalkBlocks(func(b *ir.Block) {
		for _, it := range b.Items {
			if l, ok := it.(*ir.Loop); ok {
				counters[l.Counter] = true
			}
		}
	})
	for _, v := range g.p.Vars {
		if counters[v] {
			continue
		}
		g.line(g.declString(g.names[v], v.Type), ";")
	}

	g.block(g.p.Body)

	switch {
	case multiOut:
		g.line(g.outStruct, " ", g.outVar, ";")
		for _, v := range g.p.Outputs {
			g.line(g.outVar, ".", g.names[v], "_0 = ", g.names[v], ";")
		}
		g.line("return ", g.outVar, ";")
	case len(g.p.Outputs) == 1:
		g.line("return ", g.names[g.p.Outputs[0]], ";")
	}

	g.indent--
	g.line("}")
	return g.sb.String()
}

// helperPrelude emits template helpers for the GLSL builtins the body uses
// that have no exact native MSL spelling. The frontend skips template
// definitions and maps the glsl_ names back to IR builtins, so helper
// bodies are documentation for a real Metal compiler, not part of the
// round trip.
func (g *mslgen) helperPrelude() {
	need := map[string]bool{}
	g.p.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpCall {
			switch in.Sym {
			case "mod", "radians", "degrees":
				need[in.Sym] = true
			}
		}
	})
	if need["mod"] {
		g.line()
		g.line("template <typename T, typename U>")
		g.line("static inline T glsl_mod(T x, U y) { return x - y * floor(x / y); }")
	}
	if need["radians"] {
		g.line()
		g.line("template <typename T>")
		g.line("static inline T glsl_radians(T v) { return (v * 3.14159265358979323846) / 180.0; }")
	}
	if need["degrees"] {
		g.line()
		g.line("template <typename T>")
		g.line("static inline T glsl_degrees(T v) { return (v * 180.0) / 3.14159265358979323846; }")
	}
}

// line writes one indented line made of parts.
func (g *mslgen) line(parts ...string) {
	for i := 0; i < g.indent; i++ {
		g.sb.WriteString("    ")
	}
	for _, s := range parts {
		g.sb.WriteString(s)
	}
	g.sb.WriteByte('\n')
}

// --- naming ---

// unique returns the first of base, base_2, base_3, … that is neither
// used nor reserved. A base that needed a suffix resumes after the last
// one it gave out: every candidate before that was taken then, and used
// only grows, so the names are those of a search from base_2 at linear
// cost.
func (g *mslgen) unique(base string) string {
	if base == "" {
		base = "v"
	}
	name, i := base, 1 // i is name's suffix; 1 stands for the bare base
	if last := g.suffix[base]; last > 0 {
		i = last + 1
		name = base + "_" + strconv.Itoa(i)
	}
	for g.used[name] || reservedWord(name) {
		i++
		name = base + "_" + strconv.Itoa(i)
	}
	g.used[name] = true
	if i > 1 {
		if g.suffix == nil {
			g.suffix = map[string]int{} // most programs never need one
		}
		g.suffix[base] = i
	}
	return name
}

func (g *mslgen) globalName(gl *ir.Global) string {
	if n, ok := g.names[gl]; ok {
		return n
	}
	n := g.unique(gl.Name)
	g.names[gl] = n
	return n
}

func (g *mslgen) varName(v *ir.Var) string {
	if n, ok := g.names[v]; ok {
		return n
	}
	n := g.unique(v.Name)
	g.names[v] = n
	return n
}

func (g *mslgen) tempName(in *ir.Instr) string {
	if n, ok := g.names[in]; ok {
		return n
	}
	n := g.unique("t" + strconv.Itoa(in.ID))
	g.names[in] = n
	return n
}

// globalRef renders a read of an interface global: struct member access
// for stage_in inputs and buffer uniforms, the bare argument name for
// textures.
func (g *mslgen) globalRef(gl *ir.Global) string {
	name := g.globalName(gl)
	switch {
	case g.isInput[gl]:
		return g.inVar + "." + name
	case gl.Type.IsSampler():
		return name
	default:
		return g.uVar + "." + name
	}
}

// --- types ---

// typeName renders the MSL spelling of a sem type.
func (g *mslgen) typeName(t sem.Type) string {
	if t.IsArray() {
		return "array<" + g.typeName(t.Elem()) + ", " + strconv.Itoa(t.ArrayLen) + ">"
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

func (g *mslgen) declString(name string, t sem.Type) string {
	return g.typeName(t) + " " + name
}

// --- blocks & statements (mirroring glslgen's walk) ---

func (g *mslgen) block(b *ir.Block) {
	for _, item := range b.Items {
		switch item := item.(type) {
		case *ir.Instr:
			g.instr(item)
		case *ir.If:
			g.line("if (", g.ref(item.Cond), ")")
			g.line("{")
			g.indent++
			g.block(item.Then)
			g.indent--
			if item.Else != nil && len(item.Else.Items) > 0 {
				g.line("}")
				g.line("else")
				g.line("{")
				g.indent++
				g.block(item.Else)
				g.indent--
			}
			g.line("}")
		case *ir.Loop:
			cn := g.varName(item.Counter)
			g.line("for (int ", cn, " = ", g.ref(item.Start), "; ", cn, " < ", g.ref(item.End), "; ", cn, " += ", g.ref(item.Step), ")")
			g.line("{")
			g.indent++
			g.block(item.Body)
			g.indent--
			g.line("}")
		case *ir.While:
			g.while(item)
		}
	}
}

func (g *mslgen) while(w *ir.While) {
	pure := true
	w.Cond.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore || in.Op == ir.OpDiscard {
			pure = false
		}
	})
	if pure && !w.Cond.HasControlFlow() {
		g.line("while (", g.inlineExpr(w.CondVal, w.Cond), ")")
		g.line("{")
		g.indent++
		g.block(w.Body)
		g.indent--
		g.line("}")
		return
	}
	guard := g.unique("wcond")
	g.line("bool ", guard, " = true;")
	g.line("while (", guard, ")")
	g.line("{")
	g.indent++
	g.block(w.Cond)
	g.line(guard, " = ", g.ref(w.CondVal), ";")
	g.line("if (", guard, ")")
	g.line("{")
	g.indent++
	g.block(w.Body)
	g.indent--
	g.line("}")
	g.indent--
	g.line("}")
}

func (g *mslgen) instr(in *ir.Instr) {
	switch in.Op {
	case ir.OpConst, ir.OpUniform, ir.OpInput:
		return // rendered inline at each use
	case ir.OpStore:
		g.line(g.varName(in.Var), " = ", g.ref(in.Args[0]), ";")
		return
	case ir.OpDiscard:
		g.line("discard_fragment();")
		return
	case ir.OpLoad:
		g.line(g.declString(g.tempName(in), in.Type), " = ", g.varName(in.Var), ";")
		return
	case ir.OpInsert, ir.OpInsertDyn:
		name := g.tempName(in)
		g.line(g.declString(name, in.Type), " = ", g.ref(in.Args[0]), ";")
		if in.Op == ir.OpInsert {
			g.line(name, g.elemSuffix(in.Type, in.Index), " = ", g.ref(in.Args[1]), ";")
		} else {
			g.line(name, "[", g.ref(in.Args[1]), "] = ", g.ref(in.Args[2]), ";")
		}
		return
	}
	g.line(g.declString(g.tempName(in), in.Type), " = ", g.exprFor(in), ";")
}

func (g *mslgen) elemSuffix(t sem.Type, idx int) string {
	if t.IsVector() {
		return "." + string("xyzw"[idx])
	}
	return "[" + strconv.Itoa(idx) + "]"
}

// --- expressions ---

func (g *mslgen) ref(in *ir.Instr) string {
	switch in.Op {
	case ir.OpConst:
		return g.constExpr(in.Type, in.Const)
	case ir.OpUniform, ir.OpInput:
		return g.globalRef(in.Global)
	}
	return g.tempName(in)
}

func (g *mslgen) exprFor(in *ir.Instr) string {
	return g.expr(in, nil)
}

func (g *mslgen) inlineExpr(val *ir.Instr, scope *ir.Block) string {
	inScope := map[*ir.Instr]bool{}
	scope.WalkInstrs(func(i *ir.Instr) { inScope[i] = true })
	return g.expr(val, inScope)
}

// operand renders a use of a value with parentheses when the rendering is
// non-atomic (shared by expr and the texture coordinate splitters).
func (g *mslgen) operand(a *ir.Instr, inline map[*ir.Instr]bool) string {
	var s string
	if inline != nil && inline[a] {
		if a.Op == ir.OpLoad {
			return g.varName(a.Var)
		}
		s = g.expr(a, inline)
		if !isAtomicExpr(a) {
			return "(" + s + ")"
		}
	} else {
		s = g.ref(a)
	}
	if strings.HasPrefix(s, "-") {
		return "(" + s + ")"
	}
	return s
}

func (g *mslgen) expr(in *ir.Instr, inline map[*ir.Instr]bool) string {
	operand := func(a *ir.Instr) string { return g.operand(a, inline) }

	switch in.Op {
	case ir.OpConst:
		return g.constExpr(in.Type, in.Const)
	case ir.OpUniform, ir.OpInput:
		return g.globalRef(in.Global)
	case ir.OpLoad:
		return g.varName(in.Var)
	case ir.OpBin:
		op := in.Sym
		if op == "^^" {
			op = "!=" // C++ has no ^^; != is exact XOR on bools
		}
		return operand(in.Args[0]) + " " + op + " " + operand(in.Args[1])
	case ir.OpUn:
		return in.Sym + operand(in.Args[0])
	case ir.OpCall:
		return g.callExpr(in, inline)
	case ir.OpConstruct:
		return g.constructExpr(in, inline)
	case ir.OpExtract:
		src := in.Args[0]
		if src.Type.IsVector() {
			return operand(src) + "." + string("xyzw"[in.Index])
		}
		return operand(src) + "[" + strconv.Itoa(in.Index) + "]"
	case ir.OpExtractDyn:
		return operand(in.Args[0]) + "[" + g.argString(in.Args[1], inline) + "]"
	case ir.OpSwizzle:
		var sw strings.Builder
		for _, ix := range in.Indices {
			sw.WriteByte("xyzw"[ix])
		}
		return operand(in.Args[0]) + "." + sw.String()
	case ir.OpSelect:
		return operand(in.Args[0]) + " ? " + operand(in.Args[1]) + " : " + operand(in.Args[2])
	}
	g.fail("cannot render op %s", in.Op)
	return "0.0"
}

func (g *mslgen) argString(a *ir.Instr, inline map[*ir.Instr]bool) string {
	if inline != nil && inline[a] {
		return g.expr(a, inline)
	}
	return g.ref(a)
}

func isAtomicExpr(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpCall, ir.OpConstruct, ir.OpUniform, ir.OpInput, ir.OpLoad, ir.OpConst:
		return true
	}
	return false
}

// callExpr renders a builtin call with its MSL spelling: native where the
// semantics line up 1:1, a glsl_ helper otherwise, and the texture method
// forms for sampling ops.
func (g *mslgen) callExpr(in *ir.Instr, inline map[*ir.Instr]bool) string {
	switch in.Sym {
	case "texture", "texture2D", "textureCube", "textureLod", "texelFetch":
		return g.textureExpr(in, inline)
	}
	name := in.Sym
	switch in.Sym {
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
	args := make([]string, len(in.Args))
	for i, a := range in.Args {
		args[i] = g.argString(a, inline)
	}
	return name + "(" + strings.Join(args, ", ") + ")"
}

// textureExpr renders sampling ops as texture method calls.
func (g *mslgen) textureExpr(in *ir.Instr, inline map[*ir.Instr]bool) string {
	samp := in.Args[0]
	if samp.Op != ir.OpUniform || !samp.Type.IsSampler() {
		g.fail("texture call %%%d does not sample a uniform sampler", in.ID)
		return "float4(0.0)"
	}
	tex := g.globalName(samp.Global)
	smp := g.smpNames[samp.Global]
	coord := g.argString(in.Args[1], inline)
	co := g.operand(in.Args[1], inline)
	dim := samp.Type.Dim

	switch in.Sym {
	case "texelFetch":
		// The subset's texelFetch carries the lod at the coordinate's
		// width; Metal's read takes a scalar, so emit the first component
		// (the only one the semantics consult).
		lod := g.argString(in.Args[2], inline)
		if in.Args[2].Type.IsVector() {
			lod = g.operand(in.Args[2], inline) + ".x"
		}
		uvec := "uint2"
		if in.Args[1].Type.IsVector() && in.Args[1].Type.Vec == 3 {
			uvec = "uint3"
		}
		return tex + ".read(" + uvec + "(" + coord + "), " + lod + ")"
	case "textureLod":
		lod := g.argString(in.Args[2], inline)
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
		return tex + ".sample(" + smp + ", " + coord + ", bias(" + g.argString(in.Args[2], inline) + "))"
	}
	return tex + ".sample(" + smp + ", " + coord + ")"
}

// constructExpr renders OpConstruct. Vector splats collapse to the
// single-scalar constructor; matrices are grouped into column vectors
// (MSL matrices construct from columns, not flat scalar lists).
func (g *mslgen) constructExpr(in *ir.Instr, inline map[*ir.Instr]bool) string {
	t := in.Type
	if t.IsVector() && len(in.Args) == t.Vec {
		same := true
		for _, a := range in.Args[1:] {
			if a != in.Args[0] {
				same = false
			}
		}
		if same {
			return g.typeName(t) + "(" + g.argString(in.Args[0], inline) + ")"
		}
	}
	if t.IsMatrix() {
		return g.matrixConstruct(in, inline)
	}
	args := make([]string, len(in.Args))
	for i, a := range in.Args {
		args[i] = g.argString(a, inline)
	}
	joined := strings.Join(args, ", ")
	if t.IsArray() {
		return g.typeName(t) + "{" + joined + "}"
	}
	return g.typeName(t) + "(" + joined + ")"
}

// matrixConstruct renders a matrix constructor from column vectors. Args
// that are full columns pass through; scalar runs and misaligned vectors
// are split into components (operand renderings are refs, so duplication
// is safe).
func (g *mslgen) matrixConstruct(in *ir.Instr, inline map[*ir.Instr]bool) string {
	n := in.Type.Mat
	colType := g.typeName(sem.VecType(sem.KindFloat, n))

	// Fast path: args are exactly the n column vectors.
	if len(in.Args) == n {
		direct := true
		for _, a := range in.Args {
			if !(a.Type.IsVector() && a.Type.Vec == n) {
				direct = false
			}
		}
		if direct {
			args := make([]string, len(in.Args))
			for i, a := range in.Args {
				args[i] = g.argString(a, inline)
			}
			return g.typeName(in.Type) + "(" + strings.Join(args, ", ") + ")"
		}
	}

	// General path: flatten every argument to scalar component renderings,
	// then regroup into columns.
	var comps []string
	for _, a := range in.Args {
		switch {
		case a.Type.IsScalar():
			comps = append(comps, g.argString(a, inline))
		case a.Type.IsVector():
			base := g.operand(a, inline)
			for j := 0; j < a.Type.Vec; j++ {
				comps = append(comps, base+"."+string("xyzw"[j]))
			}
		default:
			g.fail("matrix constructor argument of type %s", a.Type)
			return g.typeName(in.Type) + "(0.0)"
		}
	}
	if len(comps) != n*n {
		g.fail("matrix constructor with %d components, want %d", len(comps), n*n)
		return g.typeName(in.Type) + "(0.0)"
	}
	cols := make([]string, n)
	for c := 0; c < n; c++ {
		cols[c] = colType + "(" + strings.Join(comps[c*n:(c+1)*n], ", ") + ")"
	}
	return g.typeName(in.Type) + "(" + strings.Join(cols, ", ") + ")"
}

// constExpr renders a constant literal.
func (g *mslgen) constExpr(t sem.Type, c *ir.ConstVal) string {
	if t.IsScalar() {
		return scalarLit(t.Kind, c, 0)
	}
	if t.IsVector() {
		if c.IsSplat() {
			return g.typeName(t) + "(" + scalarLit(t.Kind, c, 0) + ")"
		}
		parts := make([]string, c.Len())
		for i := range parts {
			parts[i] = scalarLit(t.Kind, c, i)
		}
		return g.typeName(t) + "(" + strings.Join(parts, ", ") + ")"
	}
	if t.IsMatrix() {
		n := t.Mat
		colType := g.typeName(sem.VecType(sem.KindFloat, n))
		cols := make([]string, n)
		for ci := 0; ci < n; ci++ {
			parts := make([]string, n)
			for j := 0; j < n; j++ {
				parts[j] = scalarLit(t.Kind, c, ci*n+j)
			}
			cols[ci] = colType + "(" + strings.Join(parts, ", ") + ")"
		}
		return g.typeName(t) + "(" + strings.Join(cols, ", ") + ")"
	}
	if t.IsArray() {
		elem := t.Elem()
		parts := make([]string, t.ArrayLen)
		for i := range parts {
			parts[i] = g.constExpr(elem, ir.EvalExtract(t, c, i))
		}
		return g.typeName(t) + "{" + strings.Join(parts, ", ") + "}"
	}
	g.fail("constant of type %s", t)
	return "0.0"
}

func scalarLit(k sem.Kind, c *ir.ConstVal, i int) string {
	switch k {
	case sem.KindFloat:
		return glsl.FormatFloat(c.F[i])
	case sem.KindInt:
		return strconv.FormatInt(c.I[i], 10)
	case sem.KindBool:
		return strconv.FormatBool(c.B[i])
	}
	return "0"
}
