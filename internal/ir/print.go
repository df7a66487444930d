package ir

import (
	"io"
	"strconv"

	"shaderopt/internal/sem"
)

// Print writes the program as readable text IR to w — the same bytes
// String returns. Fingerprinting streams this straight into a hash
// instead of materializing the whole program text, so the writer path is
// the single source of truth and String delegates to it. Write errors
// are ignored: the printer serves diagnostics and fingerprinting, and w
// is expected to be an infallible sink (strings.Builder, a hash); wrap
// fallible writers in a buffer and check its Flush error instead.
func (p *Program) Print(w io.Writer) {
	pr := printer{w: w, buf: make([]byte, 0, printBufSize)}
	pr.program(p)
}

// String renders the program as readable text IR for tests and debugging.
func (p *Program) String() string {
	var pr printer
	pr.program(p)
	return string(pr.buf)
}

// String renders one instruction.
func (in *Instr) String() string {
	var pr printer
	pr.instr(in)
	return string(pr.buf)
}

// String renders a constant value.
func (c *ConstVal) String() string {
	var pr printer
	pr.constVal(c)
	return string(pr.buf)
}

// printBufSize is the capacity of a streaming printer's buffer. Every
// append goes through room first, so the buffer never reallocates and a
// print allocates the same objects whatever the program's size.
const printBufSize = 1 << 10

// printer renders text IR, name-sensitive (Print) or alpha-renamed
// (PrintAlpha, when alpha is set). It appends into buf with the
// strconv.Append* functions and writes buf to w as it fills; with a nil w
// it only accumulates (String).
type printer struct {
	w   io.Writer
	buf []byte

	alpha   bool
	globals map[*Global]int // uniform k → k, input k → -(k+1)
	vars    map[*Var]int
	nextVar int
	ids     []int // dense print-order ID + 1, by instruction ID; 0 = unnumbered
	nextID  int
}

// room makes room for n more bytes in buf by writing it out if needed.
func (pr *printer) room(n int) {
	if pr.w != nil && len(pr.buf)+n > cap(pr.buf) {
		pr.flush()
	}
}

func (pr *printer) flush() {
	if len(pr.buf) > 0 {
		pr.w.Write(pr.buf)
		pr.buf = pr.buf[:0]
	}
}

// str appends s, writing a string too long for the buffer straight to w.
func (pr *printer) str(s string) {
	pr.room(len(s))
	if pr.w != nil && len(s) > cap(pr.buf) {
		io.WriteString(pr.w, s)
		return
	}
	pr.buf = append(pr.buf, s...)
}

func (pr *printer) num(v int) {
	pr.room(20)
	pr.buf = strconv.AppendInt(pr.buf, int64(v), 10)
}

// ref appends "%" and the printed ID of v.
func (pr *printer) ref(v *Instr) {
	pr.str("%")
	pr.num(pr.id(v))
}

func (pr *printer) program(p *Program) {
	if pr.alpha {
		pr.startAlpha(p)
		pr.str("program @\n")
	} else {
		pr.str("program ")
		pr.str(p.Name)
		pr.str("\n")
	}
	for i, g := range p.Uniforms {
		pr.decl("uniform", g.Type)
		if pr.alpha {
			pr.str("u")
			pr.num(i)
		} else {
			pr.str(g.Name)
		}
		pr.str("\n")
	}
	for i, g := range p.Inputs {
		pr.decl("input", g.Type)
		if pr.alpha {
			pr.str("i")
			pr.num(i)
		} else {
			pr.str(g.Name)
		}
		pr.str("\n")
	}
	for _, v := range p.Vars {
		kind := "var"
		if v.IsOutput {
			kind = "output"
		}
		pr.decl(kind, v.Type)
		pr.varName(v)
		pr.str("\n")
	}
	pr.block(p.Body, 1)
	if pr.w != nil {
		pr.flush()
	}
}

// decl appends a declaration's "  kind type " prefix.
func (pr *printer) decl(kind string, t sem.Type) {
	pr.str("  ")
	pr.str(kind)
	pr.str(" ")
	pr.typ(t)
	pr.str(" ")
}

func (pr *printer) typ(t sem.Type) {
	pr.room(64)
	pr.buf = t.AppendText(pr.buf)
}

func (pr *printer) indent(depth int) {
	for i := 0; i < depth; i++ {
		pr.str("  ")
	}
}

func (pr *printer) block(b *Block, depth int) {
	for _, it := range b.Items {
		switch it := it.(type) {
		case *Instr:
			pr.indent(depth)
			pr.instr(it)
			pr.str("\n")
		case *If:
			pr.indent(depth)
			pr.str("if ")
			pr.ref(it.Cond)
			pr.str(" {\n")
			pr.block(it.Then, depth+1)
			if it.Else != nil && len(it.Else.Items) > 0 {
				pr.indent(depth)
				pr.str("} else {\n")
				pr.block(it.Else, depth+1)
			}
			pr.indent(depth)
			pr.str("}\n")
		case *Loop:
			pr.indent(depth)
			pr.str("loop ")
			pr.varName(it.Counter)
			pr.str(" = ")
			pr.ref(it.Start)
			pr.str("; < ")
			pr.ref(it.End)
			pr.str("; += ")
			pr.ref(it.Step)
			pr.str(" {\n")
			pr.block(it.Body, depth+1)
			pr.indent(depth)
			pr.str("}\n")
		case *While:
			pr.indent(depth)
			pr.str("while {\n")
			pr.block(it.Cond, depth+1)
			pr.indent(depth)
			pr.str("} ")
			pr.ref(it.CondVal)
			pr.str(" {\n")
			pr.block(it.Body, depth+1)
			pr.indent(depth)
			pr.str("}\n")
		}
	}
}

func (pr *printer) args(in *Instr) {
	for i, a := range in.Args {
		if i > 0 {
			pr.str(", ")
		}
		pr.ref(a)
	}
}

// instr appends one instruction (no trailing newline).
func (pr *printer) instr(in *Instr) {
	if in.HasResult() {
		pr.ref(in)
		pr.str(":")
		pr.typ(in.Type)
		pr.str(" = ")
	}
	switch in.Op {
	case OpConst:
		pr.str("const ")
		pr.constVal(in.Const)
	case OpUniform:
		pr.str("uniform ")
		pr.globalName(in.Global)
	case OpInput:
		pr.str("input ")
		pr.globalName(in.Global)
	case OpBin, OpUn:
		pr.str(in.Op.String())
		pr.str(" ")
		pr.room(2*len(in.Sym) + 3)
		pr.buf = strconv.AppendQuote(pr.buf, in.Sym)
		pr.str(" ")
		pr.args(in)
	case OpCall:
		pr.str("call ")
		pr.str(in.Sym)
		pr.str("(")
		pr.args(in)
		pr.str(")")
	case OpConstruct:
		pr.str("construct ")
		pr.typ(in.Type)
		pr.str("(")
		pr.args(in)
		pr.str(")")
	case OpExtract:
		pr.str("extract ")
		pr.args(in)
		pr.str("[")
		pr.num(in.Index)
		pr.str("]")
	case OpSwizzle:
		pr.str("swizzle ")
		pr.args(in)
		pr.str("[")
		for i, ix := range in.Indices {
			if i > 0 {
				pr.str(" ")
			}
			pr.num(ix)
		}
		pr.str("]")
	case OpInsert:
		pr.str("insert ")
		pr.args(in)
		pr.str(" at ")
		pr.num(in.Index)
	case OpLoad:
		pr.str("load ")
		pr.varName(in.Var)
	case OpStore:
		pr.str("store ")
		pr.varName(in.Var)
		pr.str(" <- ")
		pr.args(in)
	case OpDiscard:
		pr.str("discard")
	default: // extractdyn, insertdyn, select and unknown opcodes
		pr.str(in.Op.String())
		pr.str(" ")
		pr.args(in)
	}
}

func (pr *printer) constVal(c *ConstVal) {
	n := c.Len()
	if n != 1 {
		pr.str("(")
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			pr.str(", ")
		}
		pr.room(32)
		switch {
		case c.F != nil:
			pr.buf = strconv.AppendFloat(pr.buf, c.F[i], 'g', -1, 64)
		case c.I != nil:
			pr.buf = strconv.AppendInt(pr.buf, c.I[i], 10)
		case c.B != nil:
			pr.buf = strconv.AppendBool(pr.buf, c.B[i])
		}
	}
	if n != 1 {
		pr.str(")")
	}
}
