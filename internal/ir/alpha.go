package ir

import "io"

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
	pr := printer{w: w, buf: make([]byte, 0, printBufSize), alpha: true}
	pr.program(p)
}

// startAlpha sets up the canonical renaming state of one PrintAlpha run.
// The tables fill in deterministic declaration/print order, so the
// output is a pure function of program structure.
func (pr *printer) startAlpha(p *Program) {
	pr.globals = make(map[*Global]int, len(p.Uniforms)+len(p.Inputs))
	for i, g := range p.Uniforms {
		pr.globals[g] = i
	}
	for i, g := range p.Inputs {
		pr.globals[g] = -(i + 1)
	}
	pr.vars = make(map[*Var]int, len(p.Vars))
	pr.ids = make([]int, p.MaxID()+1)
}

// globalName appends an interface global's name, or its canonical token
// (u<k> for uniform k, i<k> for input k) when alpha-renaming.
func (pr *printer) globalName(g *Global) {
	if !pr.alpha {
		pr.str(g.Name)
		return
	}
	k, ok := pr.globals[g]
	switch {
	case !ok:
	case k >= 0:
		pr.str("u")
		pr.num(k)
	default:
		pr.str("i")
		pr.num(-k - 1)
	}
}

// varName appends a slot's name, or its canonical token when
// alpha-renaming, assigning the next one on first sight (loop counters
// introduced by passes may not be in p.Vars; they are named at first
// appearance, which is deterministic).
func (pr *printer) varName(v *Var) {
	if !pr.alpha {
		pr.str(v.Name)
		return
	}
	n, ok := pr.vars[v]
	if !ok {
		n = pr.nextVar
		pr.nextVar++
		pr.vars[v] = n
	}
	pr.str("v")
	pr.num(n)
}

// id returns the instruction's printed ID: its own, or when
// alpha-renaming its dense print-order ID, assigned at the definition
// site. A reference that somehow precedes its definition still gets a
// deterministic number (assignment order is print order).
func (pr *printer) id(in *Instr) int {
	if !pr.alpha {
		return in.ID
	}
	for in.ID >= len(pr.ids) {
		pr.ids = append(pr.ids, 0)
	}
	if n := pr.ids[in.ID]; n > 0 {
		return n - 1
	}
	n := pr.nextID
	pr.nextID++
	pr.ids[in.ID] = n + 1
	return n
}
