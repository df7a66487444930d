// Package glslgen renders IR programs back to GLSL source — the
// source-to-source output stage of the offline optimizer. Its style matches
// LunarGlass's verbose backend: one temporary per instruction, scalarized
// matrix math, splatted vector constants, and element-insert chains that
// only the Coalesce pass turns back into constructors. These are exactly
// the §III-C artefacts whose performance effects the paper studies.
package glslgen

import (
	"strconv"
	"strings"

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

// Generate renders the program as GLSL source.
func Generate(p *ir.Program, d Dialect) string {
	// Every global, variable and instruction may take a name.
	n := len(p.Uniforms) + len(p.Inputs) + len(p.Vars) + p.MaxID()
	g := &gen{
		p:       p,
		dialect: d,
		names:   make(map[any]string, n),
		used:    make(map[string]bool, n),
	}
	return g.run()
}

type gen struct {
	p       *ir.Program
	dialect Dialect
	sb      strings.Builder
	indent  int

	names  map[any]string // *ir.Var / *ir.Global / *ir.Instr -> GLSL name
	used   map[string]bool
	suffix map[string]int // base -> last suffix unique gave out for it; nil until one is
}

func (g *gen) run() string {
	if g.dialect == ES {
		g.line("#version 300 es")
		g.line("precision highp float;")
		g.line("precision highp int;")
	} else {
		g.line("#version 330")
	}

	for _, u := range g.p.Uniforms {
		g.line("uniform ", g.declString(g.globalName(u), u.Type), ";")
	}
	for _, in := range g.p.Inputs {
		g.line("in ", g.declString(g.globalName(in), in.Type), ";")
	}
	for _, out := range g.p.Outputs {
		g.line("out ", g.declString(g.varName(out), out.Type), ";")
	}

	g.line("void main()")
	g.line("{")
	g.indent++

	// Declare non-output, non-counter vars up front (counters are declared
	// by their for statements).
	counters := map[*ir.Var]bool{}
	g.p.Body.WalkBlocks(func(b *ir.Block) {
		for _, it := range b.Items {
			if l, ok := it.(*ir.Loop); ok {
				counters[l.Counter] = true
			}
		}
	})
	for _, v := range g.p.Vars {
		if v.IsOutput || counters[v] {
			continue
		}
		g.line(g.declString(g.varName(v), v.Type), ";")
	}

	g.block(g.p.Body)

	g.indent--
	g.line("}")
	return g.sb.String()
}

// line writes one indented line made of parts.
func (g *gen) line(parts ...string) {
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
func (g *gen) unique(base string) string {
	if base == "" {
		base = "v"
	}
	name, i := base, 1 // i is name's suffix; 1 stands for the bare base
	if last := g.suffix[base]; last > 0 {
		i = last + 1
		name = base + "_" + strconv.Itoa(i)
	}
	for g.used[name] || glsl.IsKeyword(name) || glsl.IsTypeName(name) || sem.IsBuiltin(name) {
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

func (g *gen) globalName(gl *ir.Global) string {
	if n, ok := g.names[gl]; ok {
		return n
	}
	n := g.unique(gl.Name)
	g.names[gl] = n
	return n
}

func (g *gen) varName(v *ir.Var) string {
	if n, ok := g.names[v]; ok {
		return n
	}
	n := g.unique(v.Name)
	g.names[v] = n
	return n
}

func (g *gen) tempName(in *ir.Instr) string {
	if n, ok := g.names[in]; ok {
		return n
	}
	n := g.unique("t" + strconv.Itoa(in.ID))
	g.names[in] = n
	return n
}

// declString renders "type name" with array suffix placement.
func (g *gen) declString(name string, t sem.Type) string {
	if t.IsArray() {
		return t.Elem().String() + " " + name + "[" + strconv.Itoa(t.ArrayLen) + "]"
	}
	return t.String() + " " + name
}

// --- blocks & statements ---

func (g *gen) block(b *ir.Block) {
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

// while emits a general loop. When the condition block is pure it becomes
// "while (expr)"; otherwise a guard-variable form is used.
func (g *gen) while(w *ir.While) {
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

// instr emits one instruction as statement(s).
func (g *gen) instr(in *ir.Instr) {
	switch in.Op {
	case ir.OpConst, ir.OpUniform, ir.OpInput:
		// Rendered inline at each use.
		return
	case ir.OpStore:
		g.line(g.varName(in.Var), " = ", g.ref(in.Args[0]), ";")
		return
	case ir.OpDiscard:
		g.line("discard;")
		return
	case ir.OpLoad:
		// Loads must be materialized at their program point so later stores
		// to the same variable do not change their value.
		g.line(g.declString(g.tempName(in), in.Type), " = ", g.varName(in.Var), ";")
		return
	case ir.OpInsert, ir.OpInsertDyn:
		// Copy + element assignment — the "individual vector element
		// insertions" the Coalesce pass targets.
		name := g.tempName(in)
		g.line(g.declString(name, in.Type), " = ", g.ref(in.Args[0]), ";")
		if in.Op == ir.OpInsert {
			g.line(name, g.elemSuffix(in.Type, in.Index), " = ", g.ref(in.Args[1]), ";")
		} else {
			g.line(name, "[", g.ref(in.Args[1]), "] = ", g.ref(in.Args[2]), ";")
		}
		return
	}
	// Pure value: single temp assignment.
	g.line(g.declString(g.tempName(in), in.Type), " = ", g.exprFor(in), ";")
}

// elemSuffix renders the access suffix for element Index of a type.
func (g *gen) elemSuffix(t sem.Type, idx int) string {
	if t.IsVector() {
		return "." + string("xyzw"[idx])
	}
	return "[" + strconv.Itoa(idx) + "]"
}

// --- expressions ---

// ref renders a use of a value: a literal for constants, the interface name
// for uniform/input reads, or the temp/var name otherwise.
func (g *gen) ref(in *ir.Instr) string {
	switch in.Op {
	case ir.OpConst:
		return g.constExpr(in.Type, in.Const)
	case ir.OpUniform, ir.OpInput:
		return g.globalName(in.Global)
	}
	return g.tempName(in)
}

// exprFor renders the defining expression of a pure instruction, operands
// as refs.
func (g *gen) exprFor(in *ir.Instr) string {
	return g.expr(in, nil)
}

// inlineExpr renders val as a self-contained expression, inlining every
// instruction defined in scope (used for while conditions).
func (g *gen) inlineExpr(val *ir.Instr, scope *ir.Block) string {
	inScope := map[*ir.Instr]bool{}
	scope.WalkInstrs(func(i *ir.Instr) { inScope[i] = true })
	return g.expr(val, inScope)
}

// expr renders in's defining expression. Operands in the inline set are
// expanded recursively; others render as refs. Operand expressions are
// parenthesized when non-atomic.
func (g *gen) expr(in *ir.Instr, inline map[*ir.Instr]bool) string {
	operand := func(a *ir.Instr) string {
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

	switch in.Op {
	case ir.OpConst:
		return g.constExpr(in.Type, in.Const)
	case ir.OpUniform, ir.OpInput:
		return g.globalName(in.Global)
	case ir.OpLoad:
		return g.varName(in.Var)
	case ir.OpBin:
		return operand(in.Args[0]) + " " + in.Sym + " " + operand(in.Args[1])
	case ir.OpUn:
		return in.Sym + operand(in.Args[0])
	case ir.OpCall:
		args := make([]string, len(in.Args))
		for i, a := range in.Args {
			args[i] = g.argString(a, inline)
		}
		return in.Sym + "(" + strings.Join(args, ", ") + ")"
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
	return "/*unsupported*/"
}

// argString renders a call argument (no parens needed).
func (g *gen) argString(a *ir.Instr, inline map[*ir.Instr]bool) string {
	if inline != nil && inline[a] {
		return g.expr(a, inline)
	}
	return g.ref(a)
}

func isAtomicExpr(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpCall, ir.OpConstruct, ir.OpUniform, ir.OpInput, ir.OpLoad:
		return true
	case ir.OpConst:
		return true
	}
	return false
}

// constructExpr renders OpConstruct. Splats collapse to the single-scalar
// constructor form.
func (g *gen) constructExpr(in *ir.Instr, inline map[*ir.Instr]bool) string {
	t := in.Type
	// Splat detection: all operands are the same instruction.
	if t.IsVector() && len(in.Args) == t.Vec {
		same := true
		for _, a := range in.Args[1:] {
			if a != in.Args[0] {
				same = false
			}
		}
		if same {
			return t.String() + "(" + g.argString(in.Args[0], inline) + ")"
		}
	}
	args := make([]string, len(in.Args))
	for i, a := range in.Args {
		args[i] = g.argString(a, inline)
	}
	joined := strings.Join(args, ", ")
	if t.IsArray() {
		return t.Elem().String() + "[](" + joined + ")"
	}
	return t.String() + "(" + joined + ")"
}

// constExpr renders a constant literal.
func (g *gen) constExpr(t sem.Type, c *ir.ConstVal) string {
	if t.IsScalar() {
		return scalarLit(t.Kind, c, 0)
	}
	if t.IsVector() || t.IsMatrix() {
		if c.IsSplat() && t.IsVector() {
			return t.String() + "(" + scalarLit(t.Kind, c, 0) + ")"
		}
		parts := make([]string, c.Len())
		for i := range parts {
			parts[i] = scalarLit(t.Kind, c, i)
		}
		return t.String() + "(" + strings.Join(parts, ", ") + ")"
	}
	if t.IsArray() {
		elem := t.Elem()
		parts := make([]string, t.ArrayLen)
		for i := range parts {
			parts[i] = g.constExpr(elem, ir.EvalExtract(t, c, i))
		}
		return elem.String() + "[](" + strings.Join(parts, ", ") + ")"
	}
	return "/*const?*/"
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
