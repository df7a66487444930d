package ir

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PrintAlpha writes the program as alpha-renamed canonical text IR: the
// same structure Print emits, with every name-bearing element replaced
// by a canonical token — the program name by "@", uniforms by u0, u1, …
// and inputs by i0, i1, … in declaration order, variable slots by v0,
// v1, … (declaration order, then first appearance for synthesized slots
// such as loop counters), and instruction IDs renumbered densely in
// print order. Two programs that differ only in identifier spelling or
// in ID numbering therefore print identically, while any structural
// difference — opcode, type, argument wiring, region shape, declaration
// order — still changes the output.
//
// This is the name-insensitive program identity behind
// core.FingerprintCanonical: driver compiles and cost models are pure
// functions of program structure (isa.Analyze never reads a name), so
// alpha-equivalent programs may share one compiled artefact — which is
// what lets structurally identical shaders arriving from different
// frontends share persistent store entries. It is NOT the identity the
// variant-enumeration trie merges by: enumeration must key generated
// *text*, where spelling matters, so it stays on the name-sensitive
// print (see core.FingerprintIR).
func (p *Program) PrintAlpha(w io.Writer) {
	a := &alphaPrinter{
		w:       w,
		globals: make(map[*Global]string, len(p.Uniforms)+len(p.Inputs)),
		vars:    make(map[*Var]string, len(p.Vars)),
		ids:     make(map[*Instr]int, p.MaxID()),
	}
	io.WriteString(w, "program @\n")
	for i, g := range p.Uniforms {
		a.globals[g] = "u" + strconv.Itoa(i)
		fmt.Fprintf(w, "  uniform %s u%d\n", g.Type, i)
	}
	for i, g := range p.Inputs {
		a.globals[g] = "i" + strconv.Itoa(i)
		fmt.Fprintf(w, "  input %s i%d\n", g.Type, i)
	}
	for _, v := range p.Vars {
		kind := "var"
		if v.IsOutput {
			kind = "output"
		}
		fmt.Fprintf(w, "  %s %s %s\n", kind, v.Type, a.varName(v))
	}
	a.block(p.Body, 1)
}

// alphaPrinter carries the canonical renaming state of one PrintAlpha
// run: the maps are filled in deterministic declaration/print order, so
// the output is a pure function of program structure.
type alphaPrinter struct {
	w       io.Writer
	globals map[*Global]string
	vars    map[*Var]string
	nextVar int
	ids     map[*Instr]int
	nextID  int
}

// varName returns the slot's canonical token, assigning the next one on
// first sight (loop counters introduced by passes may not be in
// p.Vars; they are named at first appearance, which is deterministic).
func (a *alphaPrinter) varName(v *Var) string {
	if n, ok := a.vars[v]; ok {
		return n
	}
	n := "v" + strconv.Itoa(a.nextVar)
	a.nextVar++
	a.vars[v] = n
	return n
}

// id returns the instruction's dense print-order ID, assigning at the
// definition site. A reference that somehow precedes its definition
// still gets a deterministic number (assignment order is print order).
func (a *alphaPrinter) id(in *Instr) int {
	if n, ok := a.ids[in]; ok {
		return n
	}
	n := a.nextID
	a.nextID++
	a.ids[in] = n
	return n
}

func (a *alphaPrinter) block(b *Block, depth int) {
	ind := strings.Repeat("  ", depth)
	for _, it := range b.Items {
		switch it := it.(type) {
		case *Instr:
			io.WriteString(a.w, ind)
			a.instr(it)
			io.WriteString(a.w, "\n")
		case *If:
			fmt.Fprintf(a.w, "%sif %%%d {\n", ind, a.id(it.Cond))
			a.block(it.Then, depth+1)
			if it.Else != nil && len(it.Else.Items) > 0 {
				fmt.Fprintf(a.w, "%s} else {\n", ind)
				a.block(it.Else, depth+1)
			}
			fmt.Fprintf(a.w, "%s}\n", ind)
		case *Loop:
			fmt.Fprintf(a.w, "%sloop %s = %%%d; < %%%d; += %%%d {\n", ind,
				a.varName(it.Counter), a.id(it.Start), a.id(it.End), a.id(it.Step))
			a.block(it.Body, depth+1)
			fmt.Fprintf(a.w, "%s}\n", ind)
		case *While:
			fmt.Fprintf(a.w, "%swhile {\n", ind)
			a.block(it.Cond, depth+1)
			fmt.Fprintf(a.w, "%s} %%%d {\n", ind, a.id(it.CondVal))
			a.block(it.Body, depth+1)
			fmt.Fprintf(a.w, "%s}\n", ind)
		}
	}
}

// instr mirrors Instr.print with canonical tokens substituted for every
// name and ID.
func (a *alphaPrinter) instr(in *Instr) {
	if in.HasResult() {
		fmt.Fprintf(a.w, "%%%d:%s = ", a.id(in), in.Type)
	}
	writeArgs := func() {
		for i, arg := range in.Args {
			if i > 0 {
				io.WriteString(a.w, ", ")
			}
			io.WriteString(a.w, "%")
			io.WriteString(a.w, strconv.Itoa(a.id(arg)))
		}
	}
	switch in.Op {
	case OpConst:
		io.WriteString(a.w, "const ")
		in.Const.print(a.w)
	case OpUniform:
		io.WriteString(a.w, "uniform ")
		io.WriteString(a.w, a.globals[in.Global])
	case OpInput:
		io.WriteString(a.w, "input ")
		io.WriteString(a.w, a.globals[in.Global])
	case OpBin:
		fmt.Fprintf(a.w, "bin %q ", in.BinOp)
		writeArgs()
	case OpUn:
		fmt.Fprintf(a.w, "un %q ", in.UnOp)
		writeArgs()
	case OpCall:
		fmt.Fprintf(a.w, "call %s(", in.Callee)
		writeArgs()
		io.WriteString(a.w, ")")
	case OpConstruct:
		fmt.Fprintf(a.w, "construct %s(", in.Type)
		writeArgs()
		io.WriteString(a.w, ")")
	case OpExtract:
		io.WriteString(a.w, "extract ")
		writeArgs()
		fmt.Fprintf(a.w, "[%d]", in.Index)
	case OpExtractDyn:
		io.WriteString(a.w, "extractdyn ")
		writeArgs()
	case OpSwizzle:
		io.WriteString(a.w, "swizzle ")
		writeArgs()
		fmt.Fprintf(a.w, "%v", in.Indices)
	case OpInsert:
		io.WriteString(a.w, "insert ")
		writeArgs()
		fmt.Fprintf(a.w, " at %d", in.Index)
	case OpInsertDyn:
		io.WriteString(a.w, "insertdyn ")
		writeArgs()
	case OpSelect:
		io.WriteString(a.w, "select ")
		writeArgs()
	case OpLoad:
		io.WriteString(a.w, "load ")
		io.WriteString(a.w, a.varName(in.Var))
	case OpStore:
		fmt.Fprintf(a.w, "store %s <- ", a.varName(in.Var))
		writeArgs()
	case OpDiscard:
		io.WriteString(a.w, "discard")
	default:
		io.WriteString(a.w, in.Op.String())
		io.WriteString(a.w, " ")
		writeArgs()
	}
}
