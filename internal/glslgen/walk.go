package glslgen

import (
	"errors"
	"strconv"
	"strings"

	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// A Spelling is what one C-family dialect writes its own way. The Walk
// does everything else (naming, statements, expressions) and asks the
// Spelling only for these; a Spelling places its operands with the
// Walk's Arg, Args, Operand and Elems and with Lits.
type Spelling interface {
	// Reserved reports whether name cannot be claimed as an identifier.
	Reserved(name string) bool
	// Type spells a scalar or vector type (constructors, constants).
	Type(t sem.Type) string
	// Decl spells a declaration of type t as typ, the name, then arr.
	Decl(t sem.Type) (typ, arr string)
	// Global spells a read of a uniform or input.
	Global(gl *ir.Global) string
	// Discard is the discard statement.
	Discard() string
	// Xor spells the boolean ^^ operator.
	Xor() string
	// Call spells a builtin call.
	Call(in *ir.Instr, inline map[*ir.Instr]bool) string
	// Construct spells a matrix or array constructor.
	Construct(in *ir.Instr, inline map[*ir.Instr]bool) string
	// Const spells a matrix or array constant.
	Const(t sem.Type, c *ir.ConstVal) string
}

// A Walk renders an IR program as C-family text in the style of
// LunarGlass's verbose backend: one temporary per instruction, splatted
// vector constants and element-insert chains. Init it before use. IR it
// cannot render writes a placeholder and records the first failure,
// which Text returns.
type Walk struct {
	P      *ir.Program
	sp     Spelling
	sb     strings.Builder
	indent int
	err    error

	names  map[any]string // *ir.Var / *ir.Global / *ir.Instr -> name
	used   map[string]bool
	suffix map[string]int // base -> last suffix unique gave out for it; nil until one is
}

// Init readies w to render p in sp's spelling.
func (w *Walk) Init(p *ir.Program, sp Spelling) {
	// Every global, variable and instruction may take a name.
	n := len(p.Uniforms) + len(p.Inputs) + len(p.Vars) + p.MaxID()
	w.P, w.sp = p, sp
	w.names = make(map[any]string, n)
	w.used = make(map[string]bool, n)
}

// Text returns what has been written and the first failure, if any.
func (w *Walk) Text() (string, error) { return w.sb.String(), w.err }

// Fail records err unless an earlier failure is recorded.
func (w *Walk) Fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Line writes one indented line made of parts.
func (w *Walk) Line(parts ...string) {
	for i := 0; i < w.indent; i++ {
		w.sb.WriteString("    ")
	}
	for _, s := range parts {
		w.sb.WriteString(s)
	}
	w.sb.WriteByte('\n')
}

// Open writes "{" and indents what follows; Close undoes it with end.
func (w *Walk) Open() {
	w.Line("{")
	w.indent++
}

func (w *Walk) Close(end string) {
	w.indent--
	w.Line(end)
}

// --- naming ---

// Unique returns the first of base, base_2, base_3, … that is neither
// used nor reserved. A base that needed a suffix resumes after the last
// one it gave out: every candidate before that was taken then, and used
// only grows, so the names are those of a search from base_2 at linear
// cost.
func (w *Walk) Unique(base string) string {
	if base == "" {
		base = "v"
	}
	name, i := base, 1 // i is name's suffix; 1 stands for the bare base
	if last := w.suffix[base]; last > 0 {
		i = last + 1
		name = base + "_" + strconv.Itoa(i)
	}
	for w.used[name] || w.sp.Reserved(name) {
		i++
		name = base + "_" + strconv.Itoa(i)
	}
	w.used[name] = true
	if i > 1 {
		if w.suffix == nil {
			w.suffix = map[string]int{} // most programs never need one
		}
		w.suffix[base] = i
	}
	return name
}

// name returns key's name, claiming Unique(base) on first use.
func (w *Walk) name(key any, base string) string {
	if n, ok := w.names[key]; ok {
		return n
	}
	n := w.Unique(base)
	w.names[key] = n
	return n
}

// GlobalName and VarName return a uniform's, input's or variable's name.
func (w *Walk) GlobalName(gl *ir.Global) string { return w.name(gl, gl.Name) }

func (w *Walk) VarName(v *ir.Var) string { return w.name(v, v.Name) }

func (w *Walk) tempName(in *ir.Instr) string {
	if n, ok := w.names[in]; ok {
		return n
	}
	n := w.Unique("t" + strconv.Itoa(in.ID))
	w.names[in] = n
	return n
}

// --- blocks & statements ---

// Body declares the program's variables up front (loop counters are
// declared by their for statements, outputs only when withOutputs) and
// then writes the program body.
func (w *Walk) Body(withOutputs bool) {
	counters := map[*ir.Var]bool{}
	w.P.Body.WalkBlocks(func(b *ir.Block) {
		for _, it := range b.Items {
			if l, ok := it.(*ir.Loop); ok {
				counters[l.Counter] = true
			}
		}
	})
	for _, v := range w.P.Vars {
		if counters[v] || v.IsOutput && !withOutputs {
			continue
		}
		w.declare(w.VarName(v), v.Type, "")
	}
	w.block(w.P.Body)
}

// braced writes b between braces.
func (w *Walk) braced(b *ir.Block) {
	w.Open()
	w.block(b)
	w.Close("}")
}

func (w *Walk) block(b *ir.Block) {
	for _, item := range b.Items {
		switch item := item.(type) {
		case *ir.Instr:
			w.instr(item)
		case *ir.If:
			w.Line("if (", w.ref(item.Cond), ")")
			w.braced(item.Then)
			if item.Else != nil && len(item.Else.Items) > 0 {
				w.Line("else")
				w.braced(item.Else)
			}
		case *ir.Loop:
			cn := w.VarName(item.Counter)
			w.Line("for (int ", cn, " = ", w.ref(item.Start), "; ", cn, " < ", w.ref(item.End), "; ", cn, " += ", w.ref(item.Step), ")")
			w.braced(item.Body)
		case *ir.While:
			w.while(item)
		}
	}
}

// while emits a general loop. When the condition block is pure it becomes
// "while (expr)"; otherwise a guard-variable form is used.
func (w *Walk) while(l *ir.While) {
	pure := true
	l.Cond.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore || in.Op == ir.OpDiscard {
			pure = false
		}
	})
	if pure && !l.Cond.HasControlFlow() {
		w.Line("while (", w.inlineExpr(l.CondVal, l.Cond), ")")
		w.braced(l.Body)
		return
	}
	guard := w.Unique("wcond")
	w.Line("bool ", guard, " = true;")
	w.Line("while (", guard, ")")
	w.Open()
	w.block(l.Cond)
	w.Line(guard, " = ", w.ref(l.CondVal), ";")
	w.Line("if (", guard, ")")
	w.braced(l.Body)
	w.Close("}")
}

// instr emits one instruction as statement(s).
func (w *Walk) instr(in *ir.Instr) {
	switch in.Op {
	case ir.OpConst, ir.OpUniform, ir.OpInput:
		// Rendered inline at each use.
		return
	case ir.OpStore:
		w.Line(w.VarName(in.Var), " = ", w.ref(in.Args[0]), ";")
		return
	case ir.OpDiscard:
		w.Line(w.sp.Discard())
		return
	case ir.OpLoad:
		// Loads must be materialized at their program point so later stores
		// to the same variable do not change their value.
		w.declare(w.tempName(in), in.Type, w.VarName(in.Var))
		return
	case ir.OpInsert, ir.OpInsertDyn:
		// Copy + element assignment — the "individual vector element
		// insertions" the Coalesce pass targets.
		name := w.tempName(in)
		w.declare(name, in.Type, w.ref(in.Args[0]))
		if in.Op == ir.OpInsert {
			w.Line(name, elemSuffix(in.Type, in.Index), " = ", w.ref(in.Args[1]), ";")
		} else {
			w.Line(name, "[", w.ref(in.Args[1]), "] = ", w.ref(in.Args[2]), ";")
		}
		return
	}
	// Pure value: single temp assignment.
	w.declare(w.tempName(in), in.Type, w.expr(in, nil))
}

// declare writes the declaration of name with type t, initialized to init
// unless init is empty. The parts go to Line unjoined, so a declaration
// costs no string of its own.
func (w *Walk) declare(name string, t sem.Type, init string) {
	typ, arr := w.sp.Decl(t)
	if init == "" {
		w.Line(typ, " ", name, arr, ";")
		return
	}
	w.Line(typ, " ", name, arr, " = ", init, ";")
}

// elemSuffix renders the access suffix for element idx of a type. A
// vector's is a slice of a constant, so it costs no allocation.
func elemSuffix(t sem.Type, idx int) string {
	if t.IsVector() {
		return ".x.y.z.w"[2*idx : 2*idx+2]
	}
	return "[" + strconv.Itoa(idx) + "]"
}

// --- expressions ---

// ref renders a use of a value: a literal for constants, the spelled read
// for uniforms and inputs, or the temp name otherwise.
func (w *Walk) ref(in *ir.Instr) string {
	switch in.Op {
	case ir.OpConst:
		return w.constExpr(in.Type, in.Const)
	case ir.OpUniform, ir.OpInput:
		return w.sp.Global(in.Global)
	}
	return w.tempName(in)
}

// inlineExpr renders val as a self-contained expression, inlining every
// instruction defined in scope (used for while conditions).
func (w *Walk) inlineExpr(val *ir.Instr, scope *ir.Block) string {
	inScope := map[*ir.Instr]bool{}
	scope.WalkInstrs(func(i *ir.Instr) { inScope[i] = true })
	return w.expr(val, inScope)
}

// Operand renders a use of a as an operand: operands in the inline set
// expand recursively, others render as refs, and the result is
// parenthesized when it is not atomic.
func (w *Walk) Operand(a *ir.Instr, inline map[*ir.Instr]bool) string {
	var s string
	if inline != nil && inline[a] {
		if a.Op == ir.OpLoad {
			return w.VarName(a.Var)
		}
		s = w.expr(a, inline)
		if !isAtomicExpr(a) {
			return "(" + s + ")"
		}
	} else {
		s = w.ref(a)
	}
	if strings.HasPrefix(s, "-") {
		return "(" + s + ")"
	}
	return s
}

// expr renders in's defining expression with its operands placed by
// Operand.
func (w *Walk) expr(in *ir.Instr, inline map[*ir.Instr]bool) string {
	switch in.Op {
	case ir.OpConst:
		return w.constExpr(in.Type, in.Const)
	case ir.OpUniform, ir.OpInput:
		return w.sp.Global(in.Global)
	case ir.OpLoad:
		return w.VarName(in.Var)
	case ir.OpBin:
		op := in.Sym
		if op == "^^" {
			op = w.sp.Xor()
		}
		return w.Operand(in.Args[0], inline) + " " + op + " " + w.Operand(in.Args[1], inline)
	case ir.OpUn:
		return in.Sym + w.Operand(in.Args[0], inline)
	case ir.OpCall:
		return w.sp.Call(in, inline)
	case ir.OpConstruct:
		return w.construct(in, inline)
	case ir.OpExtract:
		return w.Operand(in.Args[0], inline) + elemSuffix(in.Args[0].Type, in.Index)
	case ir.OpExtractDyn:
		return w.Operand(in.Args[0], inline) + "[" + w.Arg(in.Args[1], inline) + "]"
	case ir.OpSwizzle:
		var sw strings.Builder
		for _, ix := range in.Indices {
			sw.WriteByte("xyzw"[ix])
		}
		return w.Operand(in.Args[0], inline) + "." + sw.String()
	case ir.OpSelect:
		return w.Operand(in.Args[0], inline) + " ? " + w.Operand(in.Args[1], inline) + " : " + w.Operand(in.Args[2], inline)
	}
	w.Fail(errors.New("cannot render op " + in.Op.String()))
	return "/*unsupported*/"
}

// Arg renders a call or constructor argument (no parens needed).
func (w *Walk) Arg(a *ir.Instr, inline map[*ir.Instr]bool) string {
	if inline != nil && inline[a] {
		return w.expr(a, inline)
	}
	return w.ref(a)
}

// Args renders args with Arg, joined by ", ".
func (w *Walk) Args(args []*ir.Instr, inline map[*ir.Instr]bool) string {
	parts := make([]string, len(args))
	for i, a := range args {
		parts[i] = w.Arg(a, inline)
	}
	return strings.Join(parts, ", ")
}

func isAtomicExpr(in *ir.Instr) bool {
	switch in.Op {
	case ir.OpCall, ir.OpConstruct, ir.OpUniform, ir.OpInput, ir.OpLoad, ir.OpConst:
		return true
	}
	return false
}

// construct renders OpConstruct. Vector splats collapse to the
// single-scalar constructor form.
func (w *Walk) construct(in *ir.Instr, inline map[*ir.Instr]bool) string {
	t := in.Type
	if t.IsMatrix() || t.IsArray() {
		return w.sp.Construct(in, inline)
	}
	// Splat detection: all operands are the same instruction.
	if t.IsVector() && len(in.Args) == t.Vec {
		same := true
		for _, a := range in.Args[1:] {
			if a != in.Args[0] {
				same = false
			}
		}
		if same {
			return w.sp.Type(t) + "(" + w.Arg(in.Args[0], inline) + ")"
		}
	}
	return w.sp.Type(t) + "(" + w.Args(in.Args, inline) + ")"
}

// constExpr renders a constant literal.
func (w *Walk) constExpr(t sem.Type, c *ir.ConstVal) string {
	switch {
	case t.IsScalar():
		return scalarLit(t.Kind, c, 0)
	case t.IsVector() && c.IsSplat():
		return w.sp.Type(t) + "(" + scalarLit(t.Kind, c, 0) + ")"
	case t.IsVector():
		return w.sp.Type(t) + "(" + Lits(t.Kind, c, 0, c.Len()) + ")"
	case t.IsMatrix(), t.IsArray():
		return w.sp.Const(t, c)
	}
	w.Fail(errors.New("constant of type " + t.String()))
	return "/*const?*/"
}

// Elems renders the elements of array constant c of type t, joined by
// ", ".
func (w *Walk) Elems(t sem.Type, c *ir.ConstVal) string {
	elem := t.Elem()
	parts := make([]string, t.ArrayLen)
	for i := range parts {
		parts[i] = w.constExpr(elem, ir.EvalExtract(t, c, i))
	}
	return strings.Join(parts, ", ")
}

// Lits renders the scalar literals from..to-1 of c, joined by ", ".
func Lits(k sem.Kind, c *ir.ConstVal, from, to int) string {
	parts := make([]string, to-from)
	for i := range parts {
		parts[i] = scalarLit(k, c, from+i)
	}
	return strings.Join(parts, ", ")
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
