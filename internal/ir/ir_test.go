package ir

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"shaderopt/internal/sem"
)

func TestConstValHelpers(t *testing.T) {
	c := FloatConst(1, 2, 3)
	if c.Len() != 3 || c.Float(2) != 3 {
		t.Error("FloatConst")
	}
	if !SplatFloat(0.5, 4).IsSplat() {
		t.Error("SplatFloat should be splat")
	}
	if FloatConst(1, 2).IsSplat() {
		t.Error("(1,2) is not splat")
	}
	if !SplatFloat(0, 3).AllEqual(0) || SplatFloat(1, 3).AllEqual(0) {
		t.Error("AllEqual")
	}
	if !IntConst(7).Equal(IntConst(7)) || IntConst(7).Equal(IntConst(8)) {
		t.Error("Equal int")
	}
	if IntConst(1).Equal(FloatConst(1)) {
		t.Error("kinds differ")
	}
	if BoolConst(true).Int(0) != 1 || BoolConst(false).Float(0) != 0 {
		t.Error("bool conversions")
	}
	cl := c.Clone()
	cl.F[0] = 99
	if c.F[0] == 99 {
		t.Error("Clone should deep-copy")
	}
}

func TestEvalBinFloatVector(t *testing.T) {
	x := FloatConst(1, 2, 3, 4)
	y := FloatConst(4, 3, 2, 1)
	sum, ok := EvalBin("+", x, y)
	if !ok || !sum.Equal(FloatConst(5, 5, 5, 5)) {
		t.Errorf("+: %v %v", sum, ok)
	}
	prod, ok := EvalBin("*", x, y)
	if !ok || !prod.Equal(FloatConst(4, 6, 6, 4)) {
		t.Errorf("*: %v", prod)
	}
	q, ok := EvalBin("/", FloatConst(1), FloatConst(0))
	if !ok || !math.IsInf(q.F[0], 1) {
		t.Errorf("float div by zero should give +inf, got %v", q)
	}
}

func TestEvalBinInt(t *testing.T) {
	d, ok := EvalBin("/", IntConst(7), IntConst(2))
	if !ok || d.I[0] != 3 {
		t.Errorf("int div: %v", d)
	}
	if _, ok := EvalBin("/", IntConst(1), IntConst(0)); ok {
		t.Error("int div by zero must not fold")
	}
	if _, ok := EvalBin("%", IntConst(1), IntConst(0)); ok {
		t.Error("int mod by zero must not fold")
	}
	m, ok := EvalBin("%", IntConst(7), IntConst(3))
	if !ok || m.I[0] != 1 {
		t.Errorf("mod: %v", m)
	}
}

func TestEvalBinComparisons(t *testing.T) {
	lt, ok := EvalBin("<", FloatConst(1), FloatConst(2))
	if !ok || !lt.B[0] {
		t.Error("1 < 2")
	}
	eq, ok := EvalBin("==", FloatConst(1, 2), FloatConst(1, 2))
	if !ok || !eq.B[0] {
		t.Error("vec eq")
	}
	ne, ok := EvalBin("!=", FloatConst(1, 2), FloatConst(1, 3))
	if !ok || !ne.B[0] {
		t.Error("vec ne")
	}
	and, ok := EvalBin("&&", BoolConst(true), BoolConst(false))
	if !ok || and.B[0] {
		t.Error("&&")
	}
	if _, ok := EvalBin("<", FloatConst(1, 2), FloatConst(1, 2)); ok {
		t.Error("vector < must not evaluate")
	}
}

func TestEvalUn(t *testing.T) {
	n, ok := EvalUn("-", FloatConst(1, -2))
	if !ok || !n.Equal(FloatConst(-1, 2)) {
		t.Error("neg")
	}
	ni, ok := EvalUn("-", IntConst(5))
	if !ok || ni.I[0] != -5 {
		t.Error("neg int")
	}
	nb, ok := EvalUn("!", BoolConst(false))
	if !ok || !nb.B[0] {
		t.Error("not")
	}
}

func TestEvalConstruct(t *testing.T) {
	v := EvalConstruct(sem.Vec4, []*ConstVal{FloatConst(1, 2), FloatConst(3), FloatConst(4)})
	if !v.Equal(FloatConst(1, 2, 3, 4)) {
		t.Errorf("construct: %v", v)
	}
	// Kind conversion int -> float.
	f := EvalConstruct(sem.Float, []*ConstVal{IntConst(3)})
	if !f.Equal(FloatConst(3)) {
		t.Errorf("int->float: %v", f)
	}
	i := EvalConstruct(sem.Int, []*ConstVal{FloatConst(3.7)})
	if i.I[0] != 3 {
		t.Errorf("float->int should truncate: %v", i)
	}
	b := EvalConstruct(sem.Bool, []*ConstVal{FloatConst(2)})
	if !b.B[0] {
		t.Errorf("float->bool: %v", b)
	}
}

func TestEvalExtractSwizzleInsert(t *testing.T) {
	v := FloatConst(10, 20, 30, 40)
	if got := EvalExtract(sem.Vec4, v, 2); !got.Equal(FloatConst(30)) {
		t.Errorf("extract: %v", got)
	}
	m := FloatConst(1, 2, 3, 4) // mat2 columns (1,2) and (3,4)
	if got := EvalExtract(sem.Mat2, m, 1); !got.Equal(FloatConst(3, 4)) {
		t.Errorf("mat column: %v", got)
	}
	arr := FloatConst(1, 2, 3, 4, 5, 6)
	if got := EvalExtract(sem.ArrayOf(sem.Vec2, 3), arr, 1); !got.Equal(FloatConst(3, 4)) {
		t.Errorf("array elem: %v", got)
	}
	if got := EvalSwizzle(v, []int{3, 0, 0}); !got.Equal(FloatConst(40, 10, 10)) {
		t.Errorf("swizzle: %v", got)
	}
	ins := EvalInsert(sem.Vec4, v, FloatConst(99), 1)
	if !ins.Equal(FloatConst(10, 99, 30, 40)) {
		t.Errorf("insert: %v", ins)
	}
	if !v.Equal(FloatConst(10, 20, 30, 40)) {
		t.Error("insert must not mutate source")
	}
}

func TestEvalBuiltins(t *testing.T) {
	cases := []struct {
		name string
		args []*ConstVal
		want *ConstVal
	}{
		{"abs", []*ConstVal{FloatConst(-2, 3)}, FloatConst(2, 3)},
		{"floor", []*ConstVal{FloatConst(1.7)}, FloatConst(1)},
		{"fract", []*ConstVal{FloatConst(1.25)}, FloatConst(0.25)},
		{"min", []*ConstVal{FloatConst(1, 5), FloatConst(3)}, FloatConst(1, 3)},
		{"max", []*ConstVal{FloatConst(1, 5), FloatConst(3)}, FloatConst(3, 5)},
		{"clamp", []*ConstVal{FloatConst(-1, 0.5, 2), FloatConst(0), FloatConst(1)}, FloatConst(0, 0.5, 1)},
		{"mix", []*ConstVal{FloatConst(0), FloatConst(10), FloatConst(0.25)}, FloatConst(2.5)},
		{"step", []*ConstVal{FloatConst(0.5), FloatConst(0.2, 0.7)}, FloatConst(0, 1)},
		{"dot", []*ConstVal{FloatConst(1, 2, 3), FloatConst(4, 5, 6)}, FloatConst(32)},
		{"length", []*ConstVal{FloatConst(3, 4)}, FloatConst(5)},
		{"distance", []*ConstVal{FloatConst(1, 1), FloatConst(4, 5)}, FloatConst(5)},
		{"cross", []*ConstVal{FloatConst(1, 0, 0), FloatConst(0, 1, 0)}, FloatConst(0, 0, 1)},
		{"pow", []*ConstVal{FloatConst(2), FloatConst(10)}, FloatConst(1024)},
		{"sqrt", []*ConstVal{FloatConst(16)}, FloatConst(4)},
		{"inversesqrt", []*ConstVal{FloatConst(4)}, FloatConst(0.5)},
		{"sign", []*ConstVal{FloatConst(-3, 0, 9)}, FloatConst(-1, 0, 1)},
		{"mod", []*ConstVal{FloatConst(5.5), FloatConst(2)}, FloatConst(1.5)},
		{"reflect", []*ConstVal{FloatConst(1, -1), FloatConst(0, 1)}, FloatConst(1, 1)},
	}
	for _, c := range cases {
		got, ok := EvalBuiltin(c.name, c.args)
		if !ok {
			t.Errorf("%s: not evaluable", c.name)
			continue
		}
		if got.Len() != c.want.Len() {
			t.Errorf("%s: got %v want %v", c.name, got, c.want)
			continue
		}
		for i := 0; i < got.Len(); i++ {
			if math.Abs(got.F[i]-c.want.F[i]) > 1e-12 {
				t.Errorf("%s[%d]: got %v want %v", c.name, i, got.F[i], c.want.F[i])
			}
		}
	}
}

func TestEvalBuiltinNormalize(t *testing.T) {
	got, ok := EvalBuiltin("normalize", []*ConstVal{FloatConst(3, 0, 4)})
	if !ok || math.Abs(got.F[0]-0.6) > 1e-12 || math.Abs(got.F[2]-0.8) > 1e-12 {
		t.Errorf("normalize: %v", got)
	}
}

func TestEvalBuiltinNotFoldable(t *testing.T) {
	for _, name := range []string{"texture", "textureLod", "dFdx", "fwidth", "texelFetch"} {
		if _, ok := EvalBuiltin(name, nil); ok {
			t.Errorf("%s should not be constant-evaluable", name)
		}
	}
}

func TestEvalSmoothstepProperties(t *testing.T) {
	err := quick.Check(func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		got, ok := EvalBuiltin("smoothstep", []*ConstVal{FloatConst(0), FloatConst(1), FloatConst(x)})
		return ok && got.F[0] >= 0 && got.F[0] <= 1
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Error(err)
	}
}

// Property: float + is commutative under evaluation.
func TestEvalBinAddCommutative(t *testing.T) {
	err := quick.Check(func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		x, ok1 := EvalBin("+", FloatConst(a), FloatConst(b))
		y, ok2 := EvalBin("+", FloatConst(b), FloatConst(a))
		return ok1 && ok2 && x.Equal(y)
	}, &quick.Config{MaxCount: 500})
	if err != nil {
		t.Error(err)
	}
}

// --- Program / verifier ---

// buildSimple constructs: out = input.xy * uniform scalar, splatted.
func buildSimple() *Program {
	p := NewProgram("test")
	uvG := p.AddInput("uv", sem.Vec2)
	kG := p.AddUniform("k", sem.Float)
	out := p.AddOutput("color", sem.Vec4)

	uv := p.NewInstr(OpInput, sem.Vec2)
	uv.Global = uvG
	k := p.NewInstr(OpUniform, sem.Float)
	k.Global = kG
	splat := p.NewInstr(OpConstruct, sem.Vec2, k, k)
	mul := p.NewInstr(OpBin, sem.Vec2, uv, splat)
	mul.Sym = "*"
	one := p.NewInstr(OpConst, sem.Float)
	one.Const = FloatConst(1)
	vec := p.NewInstr(OpConstruct, sem.Vec4, mul, one, one)
	st := p.NewInstr(OpStore, sem.Void, vec)
	st.Var = out
	p.Body.Append(uv, k, splat, mul, one, vec, st)
	return p
}

func TestVerifyOK(t *testing.T) {
	p := buildSimple()
	if err := p.Verify(); err != nil {
		t.Fatalf("Verify: %v\n%s", err, p)
	}
}

func TestVerifyCatchesBadTypes(t *testing.T) {
	p := buildSimple()
	// Corrupt: make the mul result type wrong.
	p.Body.Items[3].(*Instr).Type = sem.Vec3
	if err := p.Verify(); err == nil {
		t.Fatal("want verify error for wrong bin type")
	}
}

func TestVerifyCatchesInvisibleOperand(t *testing.T) {
	p := buildSimple()
	// Move the store before its operand.
	items := p.Body.Items
	items[0], items[6] = items[6], items[0]
	if err := p.Verify(); err == nil {
		t.Fatal("want verify error for use before def")
	}
}

func TestVerifyCatchesIfScopeLeak(t *testing.T) {
	p := NewProgram("scope")
	out := p.AddOutput("c", sem.Float)
	cond := p.NewInstr(OpConst, sem.Bool)
	cond.Const = BoolConst(true)
	inner := p.NewInstr(OpConst, sem.Float)
	inner.Const = FloatConst(1)
	ifItem := &If{Cond: cond, Then: &Block{Items: []Item{inner}}}
	// Illegal: store uses a value defined inside the if arm.
	st := p.NewInstr(OpStore, sem.Void, inner)
	st.Var = out
	p.Body.Append(cond, ifItem, st)
	if err := p.Verify(); err == nil {
		t.Fatal("want verify error for scope leak")
	}
}

func TestVerifyUnregisteredVar(t *testing.T) {
	p := NewProgram("bad")
	rogue := &Var{Name: "rogue", Type: sem.Float}
	v := p.NewInstr(OpConst, sem.Float)
	v.Const = FloatConst(1)
	st := p.NewInstr(OpStore, sem.Void, v)
	st.Var = rogue
	p.Body.Append(v, st)
	if err := p.Verify(); err == nil {
		t.Fatal("want verify error for unregistered var")
	}
}

func TestTripCount(t *testing.T) {
	p := NewProgram("loop")
	mk := func(v int64) *Instr {
		in := p.NewInstr(OpConst, sem.Int)
		in.Const = IntConst(v)
		return in
	}
	l := &Loop{Counter: p.AddVar("i", sem.Int), Start: mk(0), End: mk(9), Step: mk(1), Body: &Block{}}
	if n, ok := l.TripCount(); !ok || n != 9 {
		t.Errorf("TripCount = %d, %v", n, ok)
	}
	l2 := &Loop{Counter: l.Counter, Start: mk(0), End: mk(10), Step: mk(3), Body: &Block{}}
	if n, ok := l2.TripCount(); !ok || n != 4 {
		t.Errorf("TripCount = %d, %v", n, ok)
	}
	l3 := &Loop{Counter: l.Counter, Start: mk(0), End: mk(10), Step: mk(0), Body: &Block{}}
	if _, ok := l3.TripCount(); ok {
		t.Error("zero step must not be unrollable")
	}
	dyn := p.NewInstr(OpUniform, sem.Int)
	l4 := &Loop{Counter: l.Counter, Start: mk(0), End: dyn, Step: mk(1), Body: &Block{}}
	if _, ok := l4.TripCount(); ok {
		t.Error("dynamic bound must not be unrollable")
	}
}

func TestUseCounts(t *testing.T) {
	p := buildSimple()
	uses := p.CountUses(nil)
	k := p.Body.Items[1].(*Instr)
	if uses.Of(k) != 2 {
		t.Errorf("k used %d times, want 2", uses.Of(k))
	}
	st := p.Body.Items[6].(*Instr)
	if uses.Of(st) != 0 {
		t.Error("store should have no uses")
	}
}

func TestCloneBlock(t *testing.T) {
	p := buildSimple()
	orig := p.Body.CountInstrs()
	clone := p.CloneBlock(p.Body, map[*Var]*Var{})
	if clone.CountInstrs() != orig {
		t.Fatalf("clone has %d instrs, want %d", clone.CountInstrs(), orig)
	}
	// Mutating the clone must not affect the original.
	clone.Items[4].(*Instr).Const.F[0] = 42
	if p.Body.Items[4].(*Instr).Const.F[0] == 42 {
		t.Error("clone shares constant storage")
	}
	// Cloned instructions must have fresh identities.
	if clone.Items[0] == p.Body.Items[0] {
		t.Error("clone shares instruction pointers")
	}
}

func TestCloneBlockVarSubst(t *testing.T) {
	p := NewProgram("vs")
	a := p.AddVar("a", sem.Float)
	b := p.AddVar("b", sem.Float)
	c := p.NewInstr(OpConst, sem.Float)
	c.Const = FloatConst(1)
	st := p.NewInstr(OpStore, sem.Void, c)
	st.Var = a
	p.Body.Append(c, st)
	clone := p.CloneBlock(p.Body, map[*Var]*Var{a: b})
	if clone.Items[1].(*Instr).Var != b {
		t.Error("var substitution not applied")
	}
}

// TestCloneBlockKeepsOuterOperands clones a block whose operand is defined
// outside it, with an ID between the block's own: the copy must reference
// the outer instruction itself and the copies of the inner ones.
func TestCloneBlockKeepsOuterOperands(t *testing.T) {
	p := NewProgram("outer")
	v := p.AddVar("v", sem.Float)
	a := p.NewInstr(OpConst, sem.Float)
	a.Const = FloatConst(1)
	outer := p.NewInstr(OpConst, sem.Float)
	outer.Const = FloatConst(2)
	sum := p.NewInstr(OpBin, sem.Float, a, outer)
	sum.Sym = "+"
	st := p.NewInstr(OpStore, sem.Void, sum)
	st.Var = v
	body := &Block{}
	body.Append(a, sum, st)
	p.Body.Append(outer, &Loop{Counter: p.AddVar("i", sem.Int), Start: outer, End: outer, Step: outer, Body: body})

	clone := p.CloneBlock(body, nil)
	ca, csum, cst := clone.Items[0].(*Instr), clone.Items[1].(*Instr), clone.Items[2].(*Instr)
	if ca == a || csum == sum || cst == st {
		t.Fatal("clone shares instruction pointers")
	}
	if csum.Args[0] != ca || csum.Args[1] != outer {
		t.Errorf("sum operands = %v, want the copy of a and the outer instruction", csum.Args)
	}
	if cst.Args[0] != csum {
		t.Error("store does not use the copy of sum")
	}
	for _, in := range []*Instr{ca, csum, cst} {
		if in.ID <= st.ID {
			t.Errorf("copy has ID %d, want one above the source's %d", in.ID, st.ID)
		}
	}
}

func TestProgramString(t *testing.T) {
	p := buildSimple()
	s := p.String()
	for _, want := range []string{"program test", "input vec2 uv", "uniform float k", "output vec4 color", "store color"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestRenumberIDs(t *testing.T) {
	p := buildSimple()
	p.RenumberIDs()
	want := 1
	p.Body.WalkInstrs(func(in *Instr) {
		if in.ID != want {
			t.Errorf("ID = %d, want %d", in.ID, want)
		}
		want++
	})
}

func TestWalkAndCounts(t *testing.T) {
	p := buildSimple()
	if got := p.Body.CountInstrs(); got != 7 {
		t.Errorf("CountInstrs = %d", got)
	}
	if p.Body.HasControlFlow() {
		t.Error("no control flow expected")
	}
	blocks := 0
	p.Body.WalkBlocks(func(*Block) { blocks++ })
	if blocks != 1 {
		t.Errorf("blocks = %d", blocks)
	}
}

func TestVerifyRejectsBadIDs(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(p *Program)
		want    string
	}{
		{"duplicate", func(p *Program) { p.Body.Items[4].(*Instr).ID = p.Body.Items[1].(*Instr).ID }, "duplicate instruction ID"},
		{"zero", func(p *Program) { p.Body.Items[0].(*Instr).ID = 0 }, "outside 1.."},
		{"above MaxID", func(p *Program) { p.Body.Items[6].(*Instr).ID = p.MaxID() + 1 }, "outside 1.."},
	}
	for _, tc := range cases {
		p := buildSimple()
		tc.corrupt(p)
		err := p.Verify()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestCloneAllocatesOnlyCopies pins that a whole-program clone allocates
// the copies and nothing per instruction beyond them: its substitution is
// one table indexed by ID, not a map that grows with the program. The
// program is n reads of one uniform, instructions with no operands,
// attributes or constants, so each copy is exactly one allocation.
func TestCloneAllocatesOnlyCopies(t *testing.T) {
	for _, n := range []int{1, 64, 1024} {
		p := NewProgram("wide")
		u := p.AddUniform("u", sem.Float)
		for i := 0; i < n; i++ {
			in := p.NewInstr(OpUniform, sem.Float)
			in.Global = u
			p.Body.Append(in)
		}
		// The Program, its Uniforms list, the ID table, the body Block
		// and its item slice, then one Instr per instruction.
		want := float64(5 + n)
		if got := testing.AllocsPerRun(10, func() { p.Clone() }); got != want {
			t.Errorf("n=%d: Clone made %v allocations, want %v", n, got, want)
		}
	}
}
