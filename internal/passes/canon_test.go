package passes

import (
	"strings"
	"testing"

	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// Hand-built programs for the deferred-rewrite corner cases of
// Canonicalize: replacements only a region header reads, chains, the
// mid-walk insertion of extract-of-select, and dead chains.

func uniformInstr(p *ir.Program, name string, t sem.Type) *ir.Instr {
	in := p.NewInstr(ir.OpUniform, t)
	in.Global = p.AddUniform(name, t)
	return in
}

func unInstr(p *ir.Program, op string, x *ir.Instr) *ir.Instr {
	in := p.NewInstr(ir.OpUn, x.Type, x)
	in.Sym = op
	return in
}

func binInstr(p *ir.Program, op string, t sem.Type, x, y *ir.Instr) *ir.Instr {
	in := p.NewInstr(ir.OpBin, t, x, y)
	in.Sym = op
	return in
}

func storeInstr(p *ir.Program, v *ir.Var, x *ir.Instr) *ir.Instr {
	in := p.NewInstr(ir.OpStore, sem.Void, x)
	in.Var = v
	return in
}

func blockOf(items ...ir.Item) *ir.Block { return &ir.Block{Items: items} }

func mustVerify(t *testing.T, p *ir.Program) {
	t.Helper()
	if err := p.Verify(); err != nil {
		t.Fatalf("invalid IR: %v\n%s", err, p)
	}
}

func TestCanonicalizeReplacesIfCondOnlyUse(t *testing.T) {
	p := ir.NewProgram("t")
	out := p.AddOutput("o", sem.Float)
	x := uniformInstr(p, "u", sem.Float)
	half := newConst(p, sem.Float, ir.FloatConst(0.5))
	cmp := binInstr(p, ">", sem.Bool, x, half)
	// !!cmp folds to cmp; the folded negation's only use is the header.
	neg := unInstr(p, "!", cmp)
	negneg := unInstr(p, "!", neg)
	one := newConst(p, sem.Float, ir.FloatConst(1))
	iff := &ir.If{Cond: negneg, Then: blockOf(storeInstr(p, out, one))}
	p.Body.Append(x, half, cmp, neg, negneg, one, iff)

	Canonicalize(p)
	mustVerify(t, p)
	if iff.Cond != cmp {
		t.Fatalf("If.Cond = %%%d %s, want the comparison\n%s", iff.Cond.ID, iff.Cond.Op, p)
	}
	if strings.Contains(p.String(), "!") {
		t.Fatalf("dead negations survived:\n%s", p)
	}
}

func TestCanonicalizeReplacesLoopBoundOnlyUse(t *testing.T) {
	p := ir.NewProgram("t")
	out := p.AddOutput("o", sem.Float)
	i := p.AddVar("i", sem.Int)
	n := uniformInstr(p, "n", sem.Int)
	// int(n) is a copy of n; its only use is the loop's end bound.
	end := p.NewInstr(ir.OpConstruct, sem.Int, n)
	zero := newConst(p, sem.Int, ir.IntConst(0))
	step := newConst(p, sem.Int, ir.IntConst(1))
	one := newConst(p, sem.Float, ir.FloatConst(1))
	loop := &ir.Loop{Counter: i, Start: zero, End: end, Step: step, Body: blockOf(storeInstr(p, out, one))}
	p.Body.Append(n, end, zero, step, one, loop)

	Canonicalize(p)
	mustVerify(t, p)
	if loop.End != n {
		t.Fatalf("Loop.End = %%%d %s, want the uniform\n%s", loop.End.ID, loop.End.Op, p)
	}
	if strings.Contains(p.String(), "construct") {
		t.Fatalf("dead copy survived:\n%s", p)
	}
}

func TestCanonicalizeReplacesWhileCondValOnlyUse(t *testing.T) {
	p := ir.NewProgram("t")
	out := p.AddOutput("o", sem.Float)
	v := p.AddVar("v", sem.Float)
	x := uniformInstr(p, "u", sem.Float)
	one := newConst(p, sem.Float, ir.FloatConst(1))
	ld := p.NewInstr(ir.OpLoad, sem.Float)
	ld.Var = v
	cmp := binInstr(p, "<", sem.Bool, ld, x)
	// select(c, c, c) is c; the select's only use is the loop's CondVal.
	sel := p.NewInstr(ir.OpSelect, sem.Bool, cmp, cmp, cmp)
	ld2 := p.NewInstr(ir.OpLoad, sem.Float)
	ld2.Var = v
	inc := binInstr(p, "+", sem.Float, ld2, one)
	w := &ir.While{
		Cond:    blockOf(ld, cmp, sel),
		CondVal: sel,
		Body:    blockOf(ld2, inc, storeInstr(p, v, inc)),
		MaxIter: 8,
	}
	ld3 := p.NewInstr(ir.OpLoad, sem.Float)
	ld3.Var = v
	zero := newConst(p, sem.Float, ir.FloatConst(0))
	p.Body.Append(x, one, zero, storeInstr(p, v, zero), w, ld3, storeInstr(p, out, ld3))

	Canonicalize(p)
	mustVerify(t, p)
	if w.CondVal != cmp {
		t.Fatalf("While.CondVal = %%%d %s, want the comparison\n%s", w.CondVal.ID, w.CondVal.Op, p)
	}
	if strings.Contains(p.String(), "select") {
		t.Fatalf("dead select survived:\n%s", p)
	}
}

func TestRewriterResolvesChains(t *testing.T) {
	p := ir.NewProgram("t")
	out := p.AddOutput("o", sem.Float)
	c := uniformInstr(p, "u", sem.Float)
	b := p.NewInstr(ir.OpConstruct, sem.Float, c)
	a := p.NewInstr(ir.OpConstruct, sem.Float, b)
	st := storeInstr(p, out, a)
	p.Body.Append(c, b, a, st)

	// A table chain a → b → c resolves to its end at every use.
	s := newRewriter()
	s.replace(a, b)
	s.replace(b, c)
	if got := s.resolve(a); got != c {
		t.Fatalf("resolve(a) = %%%d, want %%%d", got.ID, c.ID)
	}
	s.flush(p)
	if st.Args[0] != c || len(s.replaced) != 0 {
		t.Fatalf("after flush store reads %%%d (%d replacements pending), want %%%d", st.Args[0].ID, len(s.replaced), c.ID)
	}
	for _, e := range s.fwd {
		if e != (forward{}) {
			t.Fatalf("after flush the table still forwards %%%d", e.from.ID)
		}
	}

	// One folding sub-pass collapses the copy-of-a-copy chain: a's operand
	// resolves to c when the walk reaches a, so a forwards to c directly.
	st.Args[0], a.Args[0] = a, b
	if !foldBlock(p, s, p.Body) {
		t.Fatal("foldBlock reported no change")
	}
	if s.resolve(a) != c || s.resolve(b) != c {
		t.Fatalf("chain not resolved inside the sub-pass")
	}
	s.flush(p)
	if st.Args[0] != c {
		t.Fatalf("store reads %%%d after one sub-pass, want %%%d", st.Args[0].ID, c.ID)
	}
	mustVerify(t, p)
}

func TestFoldExtractOfSelectInsertsMidWalk(t *testing.T) {
	p := ir.NewProgram("t")
	out := p.AddOutput("o", sem.Float)
	x := uniformInstr(p, "u", sem.Float)
	half := newConst(p, sem.Float, ir.FloatConst(0.5))
	cmp := binInstr(p, ">", sem.Bool, x, half)
	k1 := newConst(p, sem.Vec2, ir.FloatConst(1, 2))
	k2 := newConst(p, sem.Vec2, ir.FloatConst(3, 4))
	sel := p.NewInstr(ir.OpSelect, sem.Vec2, cmp, k1, k2)
	ext := p.NewInstr(ir.OpExtract, sem.Float, sel)
	ext.Index = 1
	// The copy after the rewritten extract is replaced in the same walk,
	// with the extract's new constants still pending insertion.
	cp := p.NewInstr(ir.OpConstruct, sem.Float, ext)
	st := storeInstr(p, out, cp)
	p.Body.Append(x, half, cmp, k1, k2, sel, ext, cp, st)

	s := newRewriter()
	if !foldBlock(p, s, p.Body) {
		t.Fatal("foldBlock reported no change")
	}
	s.splice(p)
	s.flush(p)
	if ext.Op != ir.OpSelect || st.Args[0] != ext {
		t.Fatalf("extract not rewritten in place or copy not forwarded:\n%s", p)
	}
	a, b := ext.Args[1], ext.Args[2]
	if a.Op != ir.OpConst || b.Op != ir.OpConst || a.Const.F[0] != 2 || b.Const.F[0] != 4 {
		t.Fatalf("select arms %s / %s, want 2 / 4", a, b)
	}
	mustVerify(t, p)

	Canonicalize(p)
	mustVerify(t, p)
	got := p.String()
	if strings.Contains(got, "extract") || strings.Contains(got, "construct") {
		t.Fatalf("canonical form keeps the extract or copy:\n%s", got)
	}
}

func TestDCERemovesDeadChainInOneCall(t *testing.T) {
	p := ir.NewProgram("t")
	out := p.AddOutput("o", sem.Float)
	v := p.AddVar("v", sem.Float)
	x := uniformInstr(p, "u", sem.Float)
	one := newConst(p, sem.Float, ir.FloatConst(1))
	ld := p.NewInstr(ir.OpLoad, sem.Float)
	ld.Var = v
	// a chain where each link is used only by the next one, ending in an
	// unused value; a load feeds its head.
	a := binInstr(p, "+", sem.Float, x, ld)
	b := binInstr(p, "*", sem.Float, a, a)
	c := unInstr(p, "-", b)
	two := newConst(p, sem.Float, ir.FloatConst(2))
	st := storeInstr(p, out, two)
	p.Body.Append(x, one, ld, a, b, c, two, st)

	s := newRewriter()
	if !s.dce(p) {
		t.Fatal("dce reported no change")
	}
	if len(p.Body.Items) != 2 || p.Body.Items[0] != two || p.Body.Items[1] != st {
		t.Fatalf("dead chain not fully removed in one call:\n%s", p)
	}
	if s.dce(p) {
		t.Fatal("second dce call still found dead code")
	}
	mustVerify(t, p)
}

func TestValueTableSeparatesHashCollisions(t *testing.T) {
	p := ir.NewProgram("t")
	x := uniformInstr(p, "u", sem.Float)
	one := newConst(p, sem.Float, ir.FloatConst(1))
	two := newConst(p, sem.Float, ir.FloatConst(2))
	a := binInstr(p, "+", sem.Float, x, one)
	b := binInstr(p, "+", sem.Float, x, two)
	dupB := binInstr(p, "+", sem.Float, x, two)

	// Force a and b into one bucket: each must still match only itself.
	tab := newValueTable(0)
	const h = 42
	tab.add(a, h)
	if got := tab.find(b, h); got != nil {
		t.Fatalf("find(b) = %%%d across a collision, want nil", got.ID)
	}
	tab.add(b, h)
	if got := tab.find(dupB, h); got != b {
		t.Fatalf("find(copy of b) = %v, want b", got)
	}
	if got := tab.find(a, h); got != a {
		t.Fatalf("find(a) = %v, want a", got)
	}
	tab.reset()
	if tab.find(a, h) != nil || tab.find(dupB, h) != nil {
		t.Fatal("reset left entries behind")
	}
}
