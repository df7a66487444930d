// Package glslgen renders IR programs back to GLSL source — the
// source-to-source output stage of the offline optimizer. Its style matches
// LunarGlass's verbose backend: one temporary per instruction, scalarized
// matrix math, splatted vector constants, and element-insert chains that
// only the Coalesce pass turns back into constructors. These are exactly
// the §III-C artefacts whose performance effects the paper studies.
//
// The walk that writes them (naming, statements, expressions) is Walk,
// shared with the MSL backend: each C-family dialect supplies only its
// Spelling, and this package's is GLSL's.
package glslgen

import (
	"strconv"

	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// Dialect selects the output flavour.
type Dialect int

// Dialects.
const (
	Desktop Dialect = iota // #version 330 core style
	ES                     // #version 300 es style
)

// Generate renders the program as GLSL source. IR the walk cannot render
// is written as a /*unsupported*/ or /*const?*/ placeholder.
func Generate(p *ir.Program, d Dialect) string {
	g := &gen{}
	g.Init(p, g)
	if d == ES {
		g.Line("#version 300 es")
		g.Line("precision highp float;")
		g.Line("precision highp int;")
	} else {
		g.Line("#version 330")
	}
	for _, u := range p.Uniforms {
		g.global("uniform ", g.GlobalName(u), u.Type)
	}
	for _, in := range p.Inputs {
		g.global("in ", g.GlobalName(in), in.Type)
	}
	for _, out := range p.Outputs {
		g.global("out ", g.VarName(out), out.Type)
	}
	g.Line("void main()")
	g.Open()
	g.Body(false) // outputs are the out declarations above
	g.Close("}")
	text, _ := g.Text() // a failure is already in the text as its placeholder
	return text
}

// gen is the GLSL Spelling over its own Walk.
type gen struct{ Walk }

func (g *gen) Reserved(name string) bool {
	return glsl.IsKeyword(name) || glsl.IsTypeName(name) || sem.IsBuiltin(name)
}

func (g *gen) Type(t sem.Type) string { return t.String() }

// Decl places an array's length after the name.
func (g *gen) Decl(t sem.Type) (typ, arr string) {
	if t.IsArray() {
		return t.Elem().String(), "[" + strconv.Itoa(t.ArrayLen) + "]"
	}
	return t.String(), ""
}

// global declares an interface global with its qualifier.
func (g *gen) global(qual, name string, t sem.Type) {
	typ, arr := g.Decl(t)
	g.Line(qual, typ, " ", name, arr, ";")
}

func (g *gen) Global(gl *ir.Global) string { return g.GlobalName(gl) }

func (g *gen) Discard() string { return "discard;" }

func (g *gen) Xor() string { return "^^" }

func (g *gen) Call(in *ir.Instr, inline map[*ir.Instr]bool) string {
	return in.Sym + "(" + g.Args(in.Args, inline) + ")"
}

// Construct renders a matrix from its flat scalar list, an array as T[](...).
func (g *gen) Construct(in *ir.Instr, inline map[*ir.Instr]bool) string {
	if t := in.Type; t.IsArray() {
		return t.Elem().String() + "[](" + g.Args(in.Args, inline) + ")"
	}
	return in.Type.String() + "(" + g.Args(in.Args, inline) + ")"
}

func (g *gen) Const(t sem.Type, c *ir.ConstVal) string {
	if t.IsArray() {
		return t.Elem().String() + "[](" + g.Elems(t, c) + ")"
	}
	return t.String() + "(" + Lits(t.Kind, c, 0, c.Len()) + ")"
}
