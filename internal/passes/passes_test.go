package passes

import (
	"math"
	"testing"

	"shaderopt/internal/exec"
	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/lower"
	"shaderopt/internal/sem"
)

func mustLower(t *testing.T, src string) *ir.Program {
	t.Helper()
	sh, err := glsl.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := lower.Lower(sh, "test")
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	return p
}

func runProg(t *testing.T, p *ir.Program, env *exec.Env) *exec.Result {
	t.Helper()
	if env == nil {
		env = &exec.Env{}
	}
	res, err := exec.Run(p, env)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, p)
	}
	return res
}

// checkEquiv optimizes src with flags and checks outputs match the
// unoptimized program under env, within tol (0 = exact).
func checkEquiv(t *testing.T, src string, flags Flags, env *exec.Env, tol float64) *ir.Program {
	t.Helper()
	ref := mustLower(t, src)
	opt := mustLower(t, src)
	Run(opt, flags)
	if err := opt.Verify(); err != nil {
		t.Fatalf("flags %v: optimized IR invalid: %v\n%s", flags, err, opt)
	}
	r1 := runProg(t, ref, env)
	r2 := runProg(t, opt, env)
	if r1.Discarded != r2.Discarded {
		t.Fatalf("flags %v: discard mismatch", flags)
	}
	for name, v1 := range r1.Outputs {
		v2 := r2.Outputs[name]
		if v2 == nil || v1.Len() != v2.Len() {
			t.Fatalf("flags %v: output %q shape mismatch", flags, name)
		}
		for i := 0; i < v1.Len(); i++ {
			a, b := v1.Float(i), v2.Float(i)
			if math.IsNaN(a) && math.IsNaN(b) {
				continue
			}
			diff := math.Abs(a - b)
			scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
			if diff > tol*scale && diff > tol {
				t.Fatalf("flags %v: output %q[%d] = %v, want %v\n%s", flags, name, i, b, a, opt)
			}
		}
	}
	return opt
}

const testEnvShader = `
uniform sampler2D tex;
uniform vec4 ambient;
uniform float gain;
uniform int mode;
in vec2 uv;
in vec3 normal;
out vec4 color;
void main() {
    vec4 acc = vec4(0.0);
    float wsum = 0.0;
    const float w[5] = float[](0.1, 0.2, 0.4, 0.2, 0.1);
    for (int i = 0; i < 5; i++) {
        wsum += w[i];
        acc += w[i] * texture(tex, uv + vec2(float(i) * 0.01, 0.0)) * 2.0 * ambient;
    }
    acc /= wsum;
    vec3 n = normalize(normal);
    float d = max(dot(n, vec3(0.0, 0.0, 1.0)), 0.0);
    if (mode > 0) { acc = acc * d + acc * gain; } else { acc = acc * d; }
    vec4 outc = vec4(0.0);
    outc.x = acc.x; outc.y = acc.y; outc.z = acc.z; outc.w = 1.0;
    color = outc / 2.0;
}
`

func testEnv() *exec.Env {
	return &exec.Env{
		Uniforms: map[string]*ir.ConstVal{
			"ambient": ir.FloatConst(0.9, 0.8, 0.7, 1),
			"gain":    ir.FloatConst(0.3),
			"mode":    ir.IntConst(1),
		},
		Inputs: map[string]*ir.ConstVal{
			"uv":     ir.FloatConst(0.37, 0.61),
			"normal": ir.FloatConst(0.3, -0.2, 0.8),
		},
		Samplers: map[string]exec.Sampler{"tex": exec.DefaultSampler{}},
	}
}

// TestAllFlagCombinationsPreserveSemantics is the central soundness check:
// every one of the 256 flag combinations preserves the shader's observable
// behaviour (exactly for safe flags, within float tolerance for the unsafe
// FP flags).
func TestAllFlagCombinationsPreserveSemantics(t *testing.T) {
	env := testEnv()
	for _, flags := range AllCombinations() {
		tol := 0.0
		if flags.Has(FlagFPReassociate) || flags.Has(FlagDivToMul) {
			tol = 1e-9
		}
		checkEquiv(t, testEnvShader, flags, env, tol)
	}
}

func TestCanonicalizeFoldsConstants(t *testing.T) {
	p := mustLower(t, `
out vec4 c;
void main() {
    float a = 2.0 * 3.0 + 1.0;
    c = vec4(a) * vec4(1.0, 2.0, 3.0, 4.0);
}
`)
	Canonicalize(p)
	// Everything is constant: expect a single store of a constant.
	nonStore := 0
	p.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op != ir.OpStore && in.Op != ir.OpConst {
			nonStore++
		}
	})
	if nonStore != 0 {
		t.Errorf("expected full folding, leftover ops:\n%s", p)
	}
	res := runProg(t, p, nil)
	want := []float64{7, 14, 21, 28}
	for i, w := range want {
		if res.Outputs["c"].F[i] != w {
			t.Errorf("c[%d] = %v, want %v", i, res.Outputs["c"].F[i], w)
		}
	}
}

func TestCanonicalizeForwardsLoads(t *testing.T) {
	p := mustLower(t, `
uniform float k;
out vec4 c;
void main() {
    float a = k * 2.0;
    float b = a + 1.0;
    c = vec4(a, b, a, b);
}
`)
	Canonicalize(p)
	loads := 0
	p.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpLoad {
			loads++
		}
	})
	if loads != 0 {
		t.Errorf("straight-line loads should all forward:\n%s", p)
	}
}

func TestCanonicalizeCSE(t *testing.T) {
	p := mustLower(t, `
uniform float k;
out vec4 c;
void main() {
    float a = k * k + 1.0;
    float b = k * k + 1.0;
    c = vec4(a + b);
}
`)
	Canonicalize(p)
	muls := 0
	p.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpBin && in.Sym == "*" {
			muls++
		}
	})
	if muls != 1 {
		t.Errorf("CSE should leave one k*k, got %d:\n%s", muls, p)
	}
}

func TestUnrollExpandsConstantLoop(t *testing.T) {
	p := mustLower(t, `
uniform sampler2D tex;
in vec2 uv;
out vec4 c;
void main() {
    vec4 acc = vec4(0.0);
    for (int i = 0; i < 4; i++) {
        acc += texture(tex, uv + vec2(float(i), 0.0));
    }
    c = acc;
}
`)
	Canonicalize(p)
	if !Unroll(p) {
		t.Fatal("unroll did not fire")
	}
	for _, it := range p.Body.Items {
		if _, ok := it.(*ir.Loop); ok {
			t.Fatalf("loop survived unrolling:\n%s", p)
		}
	}
	Canonicalize(p)
	texCount := 0
	p.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpCall && in.Sym == "texture" {
			texCount++
		}
	})
	if texCount != 4 {
		t.Errorf("expected 4 texture calls after unroll, got %d", texCount)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestUnrollSkipsDynamicLoop(t *testing.T) {
	p := mustLower(t, `
uniform int n;
out vec4 c;
void main() {
    float s = 0.0;
    for (int i = 0; i < n; i++) { s += 1.0; }
    c = vec4(s);
}
`)
	Canonicalize(p)
	if Unroll(p) {
		t.Error("unroll must not fire on dynamic bounds")
	}
}

func TestHoistCreatesSelects(t *testing.T) {
	p := mustLower(t, `
uniform float k;
out vec4 c;
void main() {
    vec4 v;
    if (k > 0.5) { v = vec4(1.0); } else { v = vec4(2.0); }
    c = v;
}
`)
	Canonicalize(p)
	if !Hoist(p) {
		t.Fatal("hoist did not fire")
	}
	if p.Body.HasControlFlow() {
		t.Fatalf("control flow survived hoisting:\n%s", p)
	}
	sel := 0
	p.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpSelect {
			sel++
		}
	})
	if sel != 1 {
		t.Errorf("expected 1 select, got %d", sel)
	}
	if err := p.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestHoistSkipsDiscard(t *testing.T) {
	p := mustLower(t, `
uniform float k;
out vec4 c;
void main() {
    c = vec4(1.0);
    if (k > 0.5) { discard; }
}
`)
	Canonicalize(p)
	if Hoist(p) {
		t.Error("hoist must not flatten discards")
	}
	if !p.Body.HasControlFlow() {
		t.Error("if must survive")
	}
}

func TestHoistPartialAssignment(t *testing.T) {
	// Only one arm stores: the other side must keep the old value.
	src := `
uniform float k;
out vec4 c;
void main() {
    vec4 v = vec4(7.0);
    if (k > 0.5) { v = vec4(1.0); }
    c = v;
}
`
	for _, kv := range []float64{0.9, 0.1} {
		env := &exec.Env{Uniforms: map[string]*ir.ConstVal{"k": ir.FloatConst(kv)}}
		checkEquiv(t, src, FlagHoist, env, 0)
	}
}

func TestCoalesceMergesInsertChains(t *testing.T) {
	p := mustLower(t, `
uniform float k;
out vec4 c;
void main() {
    vec4 v = vec4(0.0);
    v.x = k;
    v.y = k * 2.0;
    v.z = k * 3.0;
    v.w = 1.0;
    c = v;
}
`)
	Canonicalize(p)
	if !Coalesce(p) {
		t.Fatal("coalesce did not fire")
	}
	inserts := 0
	p.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpInsert {
			inserts++
		}
	})
	if inserts != 0 {
		t.Errorf("insert chain survived coalescing:\n%s", p)
	}
	env := &exec.Env{Uniforms: map[string]*ir.ConstVal{"k": ir.FloatConst(5)}}
	res := runProg(t, p, env)
	want := []float64{5, 10, 15, 1}
	for i, w := range want {
		if res.Outputs["c"].F[i] != w {
			t.Errorf("c[%d] = %v, want %v", i, res.Outputs["c"].F[i], w)
		}
	}
}

func TestCoalescePartialChainKeepsBase(t *testing.T) {
	src := `
uniform float k;
uniform vec4 base;
out vec4 c;
void main() {
    vec4 v = base;
    v.x = k;
    v.y = k * 2.0;
    c = v;
}
`
	env := &exec.Env{Uniforms: map[string]*ir.ConstVal{
		"k":    ir.FloatConst(5),
		"base": ir.FloatConst(1, 2, 3, 4),
	}}
	opt := checkEquiv(t, src, FlagCoalesce, env, 0)
	inserts := 0
	opt.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpInsert {
			inserts++
		}
	})
	if inserts != 0 {
		t.Errorf("partial chain should coalesce too:\n%s", opt)
	}
}

func TestGVNMergesAcrossBlocks(t *testing.T) {
	p := mustLower(t, `
uniform float k;
uniform float m;
out vec4 c;
void main() {
    float a = k * m;
    vec4 v = vec4(0.0);
    if (k > 0.5) {
        v = vec4(k * m + 1.0);
    } else {
        v = vec4(k * m - 1.0);
    }
    c = v * a;
}
`)
	Canonicalize(p)
	countMuls := func() int {
		n := 0
		p.Body.WalkInstrs(func(in *ir.Instr) {
			if in.Op == ir.OpBin && in.Sym == "*" && in.Type.Equal(sem.Float) {
				n++
			}
		})
		return n
	}
	before := countMuls()
	if !GVN(p) {
		t.Fatalf("GVN did not fire (%d muls):\n%s", before, p)
	}
	after := countMuls()
	if after >= before {
		t.Errorf("GVN should reduce k*m count: %d -> %d", before, after)
	}
}

func TestReassociateIntCancellation(t *testing.T) {
	src := `
uniform int a;
uniform int b;
out vec4 c;
void main() {
    int r = a + b - a;
    int s = a + a + a;
    c = vec4(float(r), float(s), 0.0, 0.0);
}
`
	env := &exec.Env{Uniforms: map[string]*ir.ConstVal{"a": ir.IntConst(7), "b": ir.IntConst(3)}}
	opt := checkEquiv(t, src, FlagReassociate, env, 0)
	// a+b-a should be just b: count int adds/subs.
	intOps := 0
	opt.Body.WalkInstrs(func(in *ir.Instr) {
		if isIntAddSub(in) {
			intOps++
		}
	})
	if intOps > 0 {
		t.Errorf("expected cancellation to remove int adds (a+b-a -> b, a+a+a -> 3*a), got %d:\n%s", intOps, opt)
	}
}

func TestReassociateFloatIdentities(t *testing.T) {
	src := `
uniform float k;
out vec4 c;
void main() {
    float a = k + 0.0;
    float b = k * 1.0;
    float z = k * 0.0;
    c = vec4(a, b, z, a / 1.0);
}
`
	env := &exec.Env{Uniforms: map[string]*ir.ConstVal{"k": ir.FloatConst(3)}}
	opt := checkEquiv(t, src, FlagReassociate, env, 0)
	ops := 0
	opt.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpBin {
			ops++
		}
	})
	if ops != 0 {
		t.Errorf("identities should fold away all arithmetic:\n%s", opt)
	}
}

func TestDivToMul(t *testing.T) {
	src := `
uniform vec4 v;
out vec4 c;
void main() { c = v / 4.0; }
`
	env := &exec.Env{Uniforms: map[string]*ir.ConstVal{"v": ir.FloatConst(1, 2, 3, 4)}}
	opt := checkEquiv(t, src, FlagDivToMul, env, 1e-12)
	divs, muls := 0, 0
	opt.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpBin && in.Sym == "/" {
			divs++
		}
		if in.Op == ir.OpBin && in.Sym == "*" {
			muls++
		}
	})
	if divs != 0 || muls != 1 {
		t.Errorf("want 0 divs / 1 mul, got %d/%d:\n%s", divs, muls, opt)
	}
}

func TestDivToMulSkipsDynamicAndZero(t *testing.T) {
	p := mustLower(t, `
uniform float k;
uniform vec2 d;
out vec4 c;
void main() { c = vec4(k / d.x, k / 0.0, 0.0, 0.0); }
`)
	Canonicalize(p)
	if DivToMul(p) {
		t.Error("div-to-mul must skip dynamic and zero denominators")
	}
}

func TestFPReassocCommonFactor(t *testing.T) {
	// ab + ac -> a(b+c)
	src := `
uniform float a;
uniform float b;
uniform float fc;
out vec4 c;
void main() { c = vec4(a * b + a * fc); }
`
	env := &exec.Env{Uniforms: map[string]*ir.ConstVal{
		"a": ir.FloatConst(2), "b": ir.FloatConst(3), "fc": ir.FloatConst(5),
	}}
	opt := checkEquiv(t, src, FlagFPReassociate, env, 1e-9)
	muls := 0
	opt.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpBin && in.Sym == "*" {
			muls++
		}
	})
	if muls != 1 {
		t.Errorf("ab+ac should become a*(b+c) with one multiply, got %d:\n%s", muls, opt)
	}
}

func TestFPReassocTripleSum(t *testing.T) {
	// a + a + a -> 3a
	src := `
uniform float a;
out vec4 c;
void main() { c = vec4(a + a + a); }
`
	env := &exec.Env{Uniforms: map[string]*ir.ConstVal{"a": ir.FloatConst(2.5)}}
	opt := checkEquiv(t, src, FlagFPReassociate, env, 1e-9)
	adds, muls := 0, 0
	opt.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpBin && in.Sym == "+" {
			adds++
		}
		if in.Op == ir.OpBin && in.Sym == "*" {
			muls++
		}
	})
	if adds != 0 || muls != 1 {
		t.Errorf("a+a+a should become 3*a (0 adds, 1 mul), got %d adds %d muls:\n%s", adds, muls, opt)
	}
}

func TestFPReassocCancellation(t *testing.T) {
	// a + b - a -> b
	src := `
uniform float a;
uniform float b;
out vec4 c;
void main() { c = vec4(a + b - a); }
`
	env := &exec.Env{Uniforms: map[string]*ir.ConstVal{"a": ir.FloatConst(1e8), "b": ir.FloatConst(1)}}
	opt := checkEquiv(t, src, FlagFPReassociate, env, 1e-6)
	ops := 0
	opt.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpBin {
			ops++
		}
	})
	if ops != 0 {
		t.Errorf("a+b-a should cancel to b, %d ops left:\n%s", ops, opt)
	}
}

func TestFPReassocScalarGrouping(t *testing.T) {
	// f1*(f2*v) -> (f1*f2)*v: scalar multiply happens before splat.
	src := `
uniform float f1;
uniform float f2;
uniform vec4 v;
out vec4 c;
void main() { c = f1 * (f2 * v); }
`
	env := &exec.Env{Uniforms: map[string]*ir.ConstVal{
		"f1": ir.FloatConst(2), "f2": ir.FloatConst(3), "v": ir.FloatConst(1, 2, 3, 4),
	}}
	opt := checkEquiv(t, src, FlagFPReassociate, env, 1e-9)
	scalarMuls, vecMuls := 0, 0
	opt.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpBin && in.Sym == "*" {
			if in.Type.IsScalar() {
				scalarMuls++
			} else {
				vecMuls++
			}
		}
	})
	if scalarMuls != 1 || vecMuls != 1 {
		t.Errorf("want 1 scalar mul + 1 vector mul, got %d + %d:\n%s", scalarMuls, vecMuls, opt)
	}
}

func TestFPReassocConstantGrouping(t *testing.T) {
	// c1*(c2*v) -> (c1*c2)*v with the constant folded.
	src := `
uniform vec4 v;
out vec4 c;
void main() { c = 2.0 * (3.0 * v); }
`
	env := &exec.Env{Uniforms: map[string]*ir.ConstVal{"v": ir.FloatConst(1, 2, 3, 4)}}
	opt := checkEquiv(t, src, FlagFPReassociate, env, 1e-9)
	muls := 0
	opt.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpBin && in.Sym == "*" {
			muls++
		}
	})
	if muls != 1 {
		t.Errorf("constants should group into one multiply, got %d:\n%s", muls, opt)
	}
}

func TestFPReassocSymmetricWeights(t *testing.T) {
	// w*(x) + w*(y) -> (x+y)*w — the Listing 2 pairing.
	src := `
uniform vec4 x;
uniform vec4 y;
out vec4 c;
void main() { c = 0.21 * x + 0.21 * y; }
`
	env := &exec.Env{Uniforms: map[string]*ir.ConstVal{
		"x": ir.FloatConst(1, 2, 3, 4), "y": ir.FloatConst(5, 6, 7, 8),
	}}
	opt := checkEquiv(t, src, FlagFPReassociate, env, 1e-9)
	muls := 0
	opt.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpBin && in.Sym == "*" {
			muls++
		}
	})
	if muls != 1 {
		t.Errorf("symmetric weights should pair into (x+y)*w, got %d muls:\n%s", muls, opt)
	}
}

func TestADCENoChangeAfterCanonicalize(t *testing.T) {
	// The paper's §VI-D1 observation: ADCE never changes canonicalized
	// output because trivially-dead removal is always on.
	p := mustLower(t, testEnvShader)
	Canonicalize(p)
	if ADCE(p) {
		t.Errorf("ADCE changed canonicalized IR:\n%s", p)
	}
}

func TestADCERemovesDeadWithoutCanonicalize(t *testing.T) {
	// On raw lowered IR (dead stores present), real mark-sweep ADCE fires.
	p := mustLower(t, `
uniform float k;
out vec4 c;
void main() {
    float unused = k * 42.0;
    float dead = unused + 1.0;
    c = vec4(k);
}
`)
	before := p.Body.CountInstrs()
	if !ADCE(p) {
		t.Fatal("ADCE should remove dead computation on raw IR")
	}
	after := p.Body.CountInstrs()
	if after >= before {
		t.Errorf("ADCE did not shrink program: %d -> %d", before, after)
	}
	env := &exec.Env{Uniforms: map[string]*ir.ConstVal{"k": ir.FloatConst(2)}}
	res := runProg(t, p, env)
	if res.Outputs["c"].F[0] != 2 {
		t.Error("ADCE broke semantics")
	}
}

// DeadBodyWhiles are while loops whose body feeds no output: the loop
// still runs, so the stores its condition reads must stay. The second
// body also updates u, which nothing reads. FuzzADCEPreservesOutputs
// seeds from them too.
var DeadBodyWhiles = []string{`
uniform float k;
out vec4 c;
void main() {
    float s = 1.0;
    while (s < k) { s = s * 2.0; }
    c = vec4(1.0);
}
`, `
uniform float k;
out vec4 c;
void main() {
    float s = 1.0;
    float u = 0.0;
    while (s < k) { s = s * 2.0; u = u + 1.0; }
    c = vec4(1.0);
}
`}

// TestADCEKeepsWhileConditionStores checks that ADCE keeps the stores a
// while condition reads, through its loads: marking the condition's
// operands alone dropped s = 1.0 and the update, so the loop read an
// uninitialized s and never ended. u's update is still swept.
func TestADCEKeepsWhileConditionStores(t *testing.T) {
	env := &exec.Env{Uniforms: map[string]*ir.ConstVal{"k": ir.FloatConst(100)}}
	for i, src := range DeadBodyWhiles {
		for _, flags := range []Flags{FlagADCE, AllFlags} {
			opt := checkEquiv(t, src, flags, env, 0)
			opt.Body.WalkInstrs(func(in *ir.Instr) {
				if in.Op == ir.OpStore && in.Var.Name == "u" {
					t.Errorf("shape %d, flags %v: the store to the unused u survives:\n%s", i, flags, opt)
				}
			})
		}
	}
}

func TestMotivatingExampleOptimization(t *testing.T) {
	// Listing 1 with all flags: the loop disappears, weightTotal folds, the
	// division becomes a multiplication, and instruction count collapses.
	src := `#version 330
out vec4 fragColor;
in vec2 uv;
uniform sampler2D tex;
uniform vec4 ambient;
void main() {
    const vec4 weights[9] = vec4[](vec4(0.01), vec4(0.05), vec4(0.14),
        vec4(0.21), vec4(0.61), vec4(0.21), vec4(0.14), vec4(0.05), vec4(0.01));
    const vec2 offsets[9] = vec2[](vec2(-0.0083), vec2(-0.0062), vec2(-0.0042),
        vec2(-0.0021), vec2(0.0), vec2(0.0021), vec2(0.0042), vec2(0.0062), vec2(0.0083));
    float weightTotal = 0.0;
    fragColor = vec4(0.0);
    for (int i = 0; i < 9; i++) {
        weightTotal += weights[i][0];
        fragColor += weights[i] * texture(tex, uv + offsets[i]) * 3.0 * ambient;
    }
    fragColor /= weightTotal;
}
`
	env := &exec.Env{
		Uniforms: map[string]*ir.ConstVal{"ambient": ir.FloatConst(0.5, 0.6, 0.7, 1)},
		Inputs:   map[string]*ir.ConstVal{"uv": ir.FloatConst(0.3, 0.7)},
		Samplers: map[string]exec.Sampler{"tex": exec.DefaultSampler{}},
	}
	opt := checkEquiv(t, src, AllFlags, env, 1e-6)

	var loops, divs, texs, vecMuls int
	opt.Body.WalkInstrs(func(in *ir.Instr) {
		switch {
		case in.Op == ir.OpBin && in.Sym == "/":
			divs++
		case in.Op == ir.OpCall && in.Sym == "texture":
			texs++
		case in.Op == ir.OpBin && in.Sym == "*" && in.Type.IsVector():
			vecMuls++
		}
	})
	for _, it := range opt.Body.Items {
		if _, ok := it.(*ir.Loop); ok {
			loops++
		}
	}
	if loops != 0 {
		t.Error("loop should be fully unrolled")
	}
	if divs != 0 {
		t.Error("division should become multiplication")
	}
	if texs != 9 {
		t.Errorf("9 texture samples expected, got %d", texs)
	}
	// Listing 2 shape: 5 weight-group multiplies + the ambient factor
	// multiply + final combined-constant multiply — far fewer than the 27+
	// of the unrolled naive form.
	if vecMuls > 9 {
		t.Errorf("expected aggressive factoring (<=9 vector muls), got %d:\n%s", vecMuls, opt)
	}
}

// TestOptimizedProgramsAlwaysVerify runs every flag combination over a set
// of structurally diverse shaders and requires verifiable IR out.
func TestOptimizedProgramsAlwaysVerify(t *testing.T) {
	shaders := []string{
		`out vec4 c; void main() { c = vec4(1.0); }`,
		`uniform float k; out vec4 c; void main() { if (k > 0.0) { c = vec4(k); } else { c = vec4(-k); } }`,
		`uniform sampler2D t; in vec2 uv; out vec4 c;
		 void main() { vec4 s = vec4(0.0); for (int i = 0; i < 3; i++) { s += texture(t, uv * float(i)); } c = s / 3.0; }`,
		`uniform float k; out vec4 c;
		 void main() { float s = 1.0; while (s < k) { s = s * 2.0; } c = vec4(s); }`,
		`uniform mat3 m; in vec3 p; out vec4 c; void main() { c = vec4(m * p, 1.0); }`,
	}
	for si, src := range shaders {
		for _, flags := range []Flags{NoFlags, DefaultFlags, AllFlags, FlagHoist | FlagUnroll, FlagFPReassociate | FlagDivToMul} {
			p := mustLower(t, src)
			Run(p, flags)
			if err := p.Verify(); err != nil {
				t.Errorf("shader %d flags %v: %v\n%s", si, flags, err, p)
			}
		}
	}
}

func TestFlagsParseAndString(t *testing.T) {
	if DefaultFlags.String() != "adce+coalesce+gvn+reassociate+unroll+hoist" {
		t.Errorf("DefaultFlags = %q", DefaultFlags.String())
	}
	f, err := ParseFlags("unroll+fp-reassociate")
	if err != nil || !f.Has(FlagUnroll) || !f.Has(FlagFPReassociate) || f.Has(FlagADCE) {
		t.Errorf("ParseFlags: %v %v", f, err)
	}
	for _, s := range []string{"none", "default", "all"} {
		if _, err := ParseFlags(s); err != nil {
			t.Errorf("ParseFlags(%q): %v", s, err)
		}
	}
	if _, err := ParseFlags("bogus"); err == nil {
		t.Error("bogus flag should fail")
	}
	rt, err := ParseFlags(AllFlags.String())
	if err != nil || rt != AllFlags {
		t.Errorf("round trip all flags: %v %v", rt, err)
	}
	if NoFlags.String() != "none" {
		t.Error("NoFlags string")
	}
	if len(AllCombinations()) != 256 {
		t.Error("expected 256 combinations")
	}
	if len(FlagList()) != NumFlags {
		t.Error("FlagList size")
	}
}

func TestRunDeterministic(t *testing.T) {
	a := mustLower(t, testEnvShader)
	b := mustLower(t, testEnvShader)
	Run(a, AllFlags)
	Run(b, AllFlags)
	if a.String() != b.String() {
		t.Error("Run is not deterministic")
	}
}

// --- step-list pipeline ---

// TestFlaggedStepsCoverEveryFlagOnce pins the step list the memoized
// enumeration replays: every flag appears exactly once, in the fixed
// LunarGlass-like execution order RunFlagged documents.
func TestFlaggedStepsCoverEveryFlagOnce(t *testing.T) {
	wantOrder := []Flags{
		FlagUnroll, FlagHoist, FlagReassociate, FlagDivToMul,
		FlagFPReassociate, FlagGVN, FlagCoalesce, FlagADCE,
	}
	steps := FlaggedSteps()
	if len(steps) != len(wantOrder) {
		t.Fatalf("got %d steps, want %d", len(steps), len(wantOrder))
	}
	var covered Flags
	for i, st := range steps {
		if st.Flag != wantOrder[i] {
			t.Fatalf("step %d runs %v, want %v", i, st.Flag, wantOrder[i])
		}
		if covered.Has(st.Flag) {
			t.Fatalf("flag %v appears twice", st.Flag)
		}
		if st.Run == nil {
			t.Fatalf("step %d has no Run", i)
		}
		covered |= st.Flag
	}
	if covered != AllFlags {
		t.Fatalf("steps cover %v, want all flags", covered)
	}
}

// TestStepwiseMatchesRunFlagged checks the incremental contract the
// enumeration trie relies on: applying the enabled steps one at a time to
// a clone chain, then Finish, prints byte-identically to a monolithic
// RunFlagged — for every flag combination.
func TestStepwiseMatchesRunFlagged(t *testing.T) {
	src := `#version 330 core
uniform float u;
out vec4 color;
void main() {
    float acc = 0.0;
    for (int i = 0; i < 4; i++) {
        acc += float(i) * u / 2.0 + (u + 1.0) * (u + 1.0);
    }
    vec3 v = vec3(acc, acc * 2.0, acc / u);
    color = vec4(v, 1.0);
}`
	for _, flags := range AllCombinations() {
		mono := mustLower(t, src)
		Prepare(mono)
		step := mono.Clone()

		RunFlagged(mono, flags)

		for _, st := range FlaggedSteps() {
			if flags.Has(st.Flag) {
				next := step.Clone()
				st.Run(next)
				step = next
			}
		}
		final := step.Clone()
		Finish(final)

		if got, want := final.String(), mono.String(); got != want {
			t.Fatalf("flags %v: stepwise pipeline diverged from RunFlagged\nstepwise:\n%s\nmonolithic:\n%s", flags, got, want)
		}
	}
}

// TestFPReassocKeepsFullyExtractedTerm is the regression pin for a term
// deletion the differential-equivalence suite caught on the bloom corpus
// family: in a·b + c·(a·b·d), common-factor extraction strips a and b
// from every term, reducing the first term to a bare coefficient of 1 —
// which the rebuilder used to drop entirely, turning the sum into
// c·(a·b·d). The rebuilt sum must stay ≡ a·b·(1 + c·d).
func TestFPReassocKeepsFullyExtractedTerm(t *testing.T) {
	src := `#version 330 core
uniform sampler2D tex;
uniform float strength;
in vec2 uv;
out vec4 color;
void main() {
    vec4 base = texture(tex, uv);
    vec4 halo = texture(tex, uv * 0.5);
    vec4 glow = (halo + (halo * base) * 0.35) * strength;
    color = base + glow * 0.8 + glow * 0.2;
}`
	env := &exec.Env{
		Uniforms: map[string]*ir.ConstVal{"strength": ir.FloatConst(0.8)},
		Inputs:   map[string]*ir.ConstVal{"uv": ir.FloatConst(0.37, 0.61)},
		Samplers: map[string]exec.Sampler{"tex": exec.DefaultSampler{}},
	}
	checkEquiv(t, src, FlagFPReassociate, env, 1e-9)
	checkEquiv(t, src, FlagFPReassociate|FlagDivToMul|FlagGVN|FlagADCE, env, 1e-9)
}
