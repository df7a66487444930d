package ir

import (
	"strings"
	"testing"

	"shaderopt/internal/sem"
)

// buildAlphaProg constructs one fixed program structure — uniforms,
// inputs, a local, an output, a loop, an if, and a store — with every
// identifier drawn from names and with idGap extra discarded instruction
// IDs allocated up front, so two calls differing only in names/idGap are
// alpha-equivalent but print differently under the name-sensitive Print.
func buildAlphaProg(names map[string]string, idGap int) *Program {
	p := NewProgram(names["prog"])
	for i := 0; i < idGap; i++ {
		p.NewInstr(OpConst, sem.Float) // burn IDs; never inserted
	}
	scale := p.AddUniform(names["scale"], sem.Float)
	uv := p.AddInput(names["uv"], sem.Vec2)
	acc := p.AddVar(names["acc"], sem.Float)
	out := p.AddOutput(names["out"], sem.Vec4)

	zero := p.NewInstr(OpConst, sem.Float)
	zero.Const = FloatConst(0)
	init := p.NewInstr(OpStore, sem.Float, zero)
	init.Var = acc

	start := p.NewInstr(OpConst, sem.Int)
	start.Const = IntConst(0)
	end := p.NewInstr(OpConst, sem.Int)
	end.Const = IntConst(4)
	step := p.NewInstr(OpConst, sem.Int)
	step.Const = IntConst(1)

	counter := &Var{Name: names["i"], Type: sem.Int}
	ld := p.NewInstr(OpLoad, sem.Float)
	ld.Var = acc
	s := p.NewInstr(OpUniform, sem.Float)
	s.Global = scale
	sum := p.NewInstr(OpBin, sem.Float, ld, s)
	sum.Sym = "+"
	wr := p.NewInstr(OpStore, sem.Float, sum)
	wr.Var = acc
	body := &Block{}
	body.Append(ld, s, sum, wr)

	loop := &Loop{Counter: counter, Start: start, End: end, Step: step, Body: body}

	in := p.NewInstr(OpInput, sem.Vec2)
	in.Global = uv
	x := p.NewInstr(OpExtract, sem.Float, in)
	cond := p.NewInstr(OpBin, sem.Bool, x, zero)
	cond.Sym = ">"
	final := p.NewInstr(OpLoad, sem.Float)
	final.Var = acc
	v4 := p.NewInstr(OpConstruct, sem.Vec4, final, final, final, final)
	emit := p.NewInstr(OpStore, sem.Vec4, v4)
	emit.Var = out
	then := &Block{}
	then.Append(final, v4, emit)

	p.Body.Append(zero, init, start, end, step, loop, in, x, cond,
		&If{Cond: cond, Then: then})
	return p
}

func alphaText(p *Program) string {
	var sb strings.Builder
	p.PrintAlpha(&sb)
	return sb.String()
}

func TestPrintAlphaCollapsesRenamings(t *testing.T) {
	a := buildAlphaProg(map[string]string{
		"prog": "main", "scale": "u_scale", "uv": "v_uv",
		"acc": "acc", "out": "fragColor", "i": "i",
	}, 0)
	b := buildAlphaProg(map[string]string{
		"prog": "ps_main", "scale": "intensity", "uv": "texcoord0",
		"acc": "total_h", "out": "out_color", "i": "loop_idx",
	}, 7)

	if a.String() == b.String() {
		t.Fatal("renamed programs print identically under the name-sensitive Print; test is vacuous")
	}
	if got, want := alphaText(a), alphaText(b); got != want {
		t.Fatalf("alpha-equivalent programs diverge under PrintAlpha:\n--- a ---\n%s--- b ---\n%s", got, want)
	}
}

func TestPrintAlphaSeparatesStructure(t *testing.T) {
	names := map[string]string{
		"prog": "main", "scale": "u_scale", "uv": "v_uv",
		"acc": "acc", "out": "fragColor", "i": "i",
	}
	base := buildAlphaProg(names, 0)

	// Changing an operator is a structural difference and must change
	// the alpha print even though no name differs.
	mut := buildAlphaProg(names, 0)
	mut.Body.WalkInstrs(func(in *Instr) {
		if in.Op == OpBin && in.Sym == "+" {
			in.Sym = "*"
		}
	})
	if alphaText(base) == alphaText(mut) {
		t.Fatal("PrintAlpha ignored a BinOp change")
	}

	// So must swapping declaration order of two same-typed uniforms.
	two := NewProgram("p")
	ua := two.AddUniform("a", sem.Float)
	ub := two.AddUniform("b", sem.Float)
	la := two.NewInstr(OpUniform, sem.Float)
	la.Global = ua
	lb := two.NewInstr(OpUniform, sem.Float)
	lb.Global = ub
	d := two.NewInstr(OpBin, sem.Float, la, lb)
	d.Sym = "-"
	two.Body.Append(la, lb, d)

	swapped := NewProgram("p")
	sb2 := swapped.AddUniform("b", sem.Float)
	sa := swapped.AddUniform("a", sem.Float)
	l2a := swapped.NewInstr(OpUniform, sem.Float)
	l2a.Global = sa
	l2b := swapped.NewInstr(OpUniform, sem.Float)
	l2b.Global = sb2
	d2 := swapped.NewInstr(OpBin, sem.Float, l2a, l2b)
	d2.Sym = "-"
	swapped.Body.Append(l2a, l2b, d2)

	if alphaText(two) == alphaText(swapped) {
		t.Fatal("PrintAlpha ignored uniform declaration-order difference")
	}
}

// TestPrintAlphaMirrorsPrintShape pins that PrintAlpha stays structurally
// in lockstep with Print: modulo identifier tokens and ID numbering, the
// two renderings of one program must have the same line count and the
// same leading keyword on every line. A new construct added to Print but
// forgotten in PrintAlpha fails here.
func TestPrintAlphaMirrorsPrintShape(t *testing.T) {
	p := buildAlphaProg(map[string]string{
		"prog": "main", "scale": "u_scale", "uv": "v_uv",
		"acc": "acc", "out": "fragColor", "i": "i",
	}, 0)
	plain := strings.Split(strings.TrimRight(p.String(), "\n"), "\n")
	alpha := strings.Split(strings.TrimRight(alphaText(p), "\n"), "\n")
	if len(plain) != len(alpha) {
		t.Fatalf("line counts diverge: Print %d, PrintAlpha %d", len(plain), len(alpha))
	}
	shape := func(line string) string {
		trimmed := strings.TrimLeft(line, " ")
		indent := len(line) - len(trimmed)
		word, _, _ := strings.Cut(trimmed, " ")
		if i := strings.IndexByte(word, '%'); i >= 0 {
			word = "%"
		}
		return strings.Repeat(" ", indent) + word
	}
	for i := range plain {
		if shape(plain[i]) != shape(alpha[i]) {
			t.Fatalf("line %d shape diverges:\n  print: %q\n  alpha: %q", i, plain[i], alpha[i])
		}
	}
}
