package passes

import (
	"math"
	"sort"
	"strconv"

	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// FPReassoc is the paper's custom unsafe floating-point reassociation pass
// (§III-B). It rewrites float add/sub trees as canonical linear
// combinations:
//
//	ab + ac        -> a(b + c)     (common-factor extraction)
//	a + a + a      -> 3a           (term combining)
//	a + b - a      -> b            (cancellation)
//	f1*(f2*v)      -> (f1*f2)*v    (scalar grouping before vectorization)
//	c1*(c2*v)      -> (c1*c2)*v    (constant grouping)
//
// Terms sharing a coefficient are paired — (fc1 + fc9) * w — reproducing
// the symmetric-weight factoring of the motivating example (Listing 2).
// Operand order is canonicalized, enabling later CSE. None of this is
// legal for a conformant driver compiler; offline, the developer opts in.
const fpMaxTerms = 64

// FPReassoc applies the rewrite to every maximal float add/sub tree and
// multiplication chain. It reports whether anything changed.
func FPReassoc(p *ir.Program) bool {
	changed := false
	// Bounded rounds: a rewrite can expose new opportunities after
	// canonicalization (constant folding of grouped coefficients), but an
	// already-canonical tree rebuilds to an identical shape, so iterating
	// to a "no change" fixed point would not terminate.
	for round := 0; round < 3; round++ {
		uses := p.CountUses(nil)
		r := &fpRewriter{p: p, uses: uses, users: soleUsers(p, uses)}
		var roots []*ir.Instr
		p.Body.WalkInstrs(func(in *ir.Instr) {
			if r.isRoot(in) {
				roots = append(roots, in)
			}
		})
		any := false
		for _, root := range roots {
			if r.rewrite(root) {
				any = true
			}
		}
		if !any {
			break
		}
		splice(p, r.inserts)
		changed = true
		Canonicalize(p)
	}
	return changed
}

// fpRewriter is one round's state. uses and users are counted before
// the round's first rewrite. Each rewritten root's new instructions are
// queued in inserts, in root order, and spliced when the round ends. The
// uses of a rewritten root are redirected at once (replaceUses), and a
// later root's leaves always precede it, so the final item order is the
// same as placing each root's instructions as it is rewritten.
type fpRewriter struct {
	p       *ir.Program
	uses    ir.Uses
	users   []*ir.Instr
	inserts []insertion
}

// floatArith reports whether in is a float +,-,* on scalars or vectors
// (matrix operands are opaque to reassociation).
func floatArith(in *ir.Instr) bool {
	if in.Op != ir.OpBin || in.Type.Kind != sem.KindFloat || in.Type.IsMatrix() || in.Type.IsArray() {
		return false
	}
	if in.Args[0].Type.IsMatrix() || in.Args[1].Type.IsMatrix() {
		return false
	}
	return in.BinOp == "+" || in.BinOp == "-" || in.BinOp == "*"
}

// isRoot selects maximal arithmetic trees: float arith nodes not consumed
// exclusively by a same-type float arith parent.
func (r *fpRewriter) isRoot(in *ir.Instr) bool {
	if !floatArith(in) {
		return false
	}
	u := r.users[in.ID]
	return u == nil || !floatArith(u) || !u.Type.Equal(in.Type)
}

// term is one summand: coeff × Π factors.
type term struct {
	coeff   float64
	factors []*ir.Instr
}

// termKey identifies a factor multiset by its sorted instruction IDs,
// which are distinct for the program's instructions and the ones a round
// has created.
func termKey(factors []*ir.Instr) string {
	ids := make([]int, len(factors))
	for i, f := range factors {
		ids[i] = f.ID
	}
	sort.Ints(ids)
	key := make([]byte, 0, 6*len(ids))
	for _, id := range ids {
		key = strconv.AppendInt(key, int64(id), 10)
		key = append(key, ',')
	}
	return string(key)
}

// rewrite flattens the tree rooted at root and rebuilds it canonically.
func (r *fpRewriter) rewrite(root *ir.Instr) bool {
	t := root.Type
	width := t.Components()

	var terms []*term
	index := map[string]*term{}
	constAcc := make([]float64, width)
	consumed := 0
	overflow := false

	addTerm := func(coeff float64, factors []*ir.Instr) {
		if len(factors) == 0 {
			for i := range constAcc {
				constAcc[i] += coeff
			}
			return
		}
		key := termKey(factors)
		if ex, ok := index[key]; ok {
			ex.coeff += coeff
			return
		}
		if len(terms) >= fpMaxTerms {
			overflow = true
			return
		}
		nt := &term{coeff: coeff, factors: factors}
		index[key] = nt
		terms = append(terms, nt)
	}

	var flattenLinear func(in *ir.Instr, coeff float64, extra []*ir.Instr)

	// flattenMul decomposes a multiplicative node into (coeff, factors).
	var flattenMul func(in *ir.Instr) (float64, []*ir.Instr)
	flattenMul = func(in *ir.Instr) (float64, []*ir.Instr) {
		switch {
		case in.Op == ir.OpConst && in.Const.Kind == sem.KindFloat && in.Const.IsSplat() && in.Const.Len() > 0:
			consumed++
			return in.Const.F[0], nil
		case in.Op == ir.OpBin && in.BinOp == "*" && in.Type.Kind == sem.KindFloat &&
			!in.Args[0].Type.IsMatrix() && !in.Args[1].Type.IsMatrix() &&
			(in == root || (r.uses.Of(in) == 1 && !in.Type.IsMatrix())):
			consumed++
			c1, f1 := flattenMul(in.Args[0])
			c2, f2 := flattenMul(in.Args[1])
			return c1 * c2, append(f1, f2...)
		case in.Op == ir.OpUn && in.UnOp == "-" && r.uses.Of(in) == 1:
			consumed++
			c, f := flattenMul(in.Args[0])
			return -c, f
		default:
			if s, ok := splatThrough(in); ok && r.uses.Of(in) == 1 {
				// Splat of a scalar: descend so scalar factors group before
				// vectorization.
				consumed++
				return flattenMul(s)
			}
			return 1, []*ir.Instr{in}
		}
	}

	flattenLinear = func(in *ir.Instr, coeff float64, extra []*ir.Instr) {
		switch {
		case in.Op == ir.OpConst && in.Const.Kind == sem.KindFloat && len(extra) == 0:
			consumed++
			for i := 0; i < width; i++ {
				ci := i
				if in.Const.Len() == 1 {
					ci = 0
				}
				constAcc[i] += coeff * in.Const.F[ci]
			}
		case in.Op == ir.OpBin && (in.BinOp == "+" || in.BinOp == "-") && in.Type.Equal(t) &&
			(in == root || r.uses.Of(in) == 1):
			consumed++
			flattenLinear(in.Args[0], coeff, extra)
			if in.BinOp == "+" {
				flattenLinear(in.Args[1], coeff, extra)
			} else {
				flattenLinear(in.Args[1], -coeff, extra)
			}
		case in.Op == ir.OpUn && in.UnOp == "-" && in.Type.Equal(t) && r.uses.Of(in) == 1:
			consumed++
			flattenLinear(in.Args[0], -coeff, extra)
		case in.Op == ir.OpBin && in.BinOp == "*" && in.Type.Kind == sem.KindFloat &&
			!in.Args[0].Type.IsMatrix() && !in.Args[1].Type.IsMatrix():
			c, factors := flattenMul(in)
			// Distribute over a single-use additive subtree if present.
			var sub *ir.Instr
			rest := factors[:0:0]
			for _, f := range factors {
				if sub == nil && f.Type.Equal(t) && r.uses.Of(f) == 1 &&
					f.Op == ir.OpBin && (f.BinOp == "+" || f.BinOp == "-") {
					sub = f
					continue
				}
				rest = append(rest, f)
			}
			if sub != nil {
				flattenLinear(sub, coeff*c, append(append([]*ir.Instr{}, extra...), rest...))
			} else {
				addTerm(coeff*c, append(append([]*ir.Instr{}, extra...), rest...))
			}
		default:
			addTerm(coeff, append(append([]*ir.Instr{}, extra...), []*ir.Instr{in}...))
		}
	}

	flattenLinear(root, 1, nil)
	if overflow || consumed <= 1 {
		return false
	}

	// Drop cancelled terms (unsafe: ignores NaN/Inf propagation).
	kept := terms[:0]
	for _, tm := range terms {
		if tm.coeff != 0 {
			kept = append(kept, tm)
		}
	}
	terms = kept

	// Common-factor extraction across all terms (only valid when there is
	// no bare constant term).
	var common []*ir.Instr
	constZero := true
	for _, v := range constAcc {
		if v != 0 {
			constZero = false
		}
	}
	if len(terms) >= 2 && constZero {
		for {
			f := commonFactor(terms)
			if f == nil {
				break
			}
			common = append(common, f)
			for _, tm := range terms {
				tm.factors = removeOne(tm.factors, f)
			}
		}
	}

	// Group terms by coefficient.
	type group struct {
		coeff float64
		terms []*term
	}
	groupIdx := map[float64]*group{}
	var groups []*group
	for _, tm := range terms {
		g, ok := groupIdx[tm.coeff]
		if !ok {
			g = &group{coeff: tm.coeff}
			groupIdx[tm.coeff] = g
			groups = append(groups, g)
		}
		g.terms = append(g.terms, tm)
	}
	sort.Slice(groups, func(i, j int) bool {
		ai, aj := math.Abs(groups[i].coeff), math.Abs(groups[j].coeff)
		if ai != aj {
			return ai > aj
		}
		return groups[i].coeff > groups[j].coeff
	})

	// Rebuild.
	b := &fpBuilder{p: r.p, t: t}
	var total *ir.Instr
	for _, g := range groups {
		var gsum *ir.Instr
		sort.Slice(g.terms, func(i, j int) bool { return termLess(g.terms[i], g.terms[j]) })
		for _, tm := range g.terms {
			prod := b.product(tm.factors, 1)
			if prod == nil {
				// Width-mismatched factor (defensive): abort the whole
				// rewrite rather than rebuild a sum missing a term.
				return false
			}
			gsum = b.add(gsum, prod)
		}
		if g.coeff != 1 {
			gsum = b.mulConst(gsum, g.coeff)
		}
		total = b.add(total, gsum)
	}
	if !constZero || total == nil {
		cv := make([]float64, width)
		copy(cv, constAcc)
		c := newConst(r.p, t, &ir.ConstVal{Kind: sem.KindFloat, F: cv})
		b.emit(c)
		total = b.add(total, c)
	}
	for _, f := range sortFactors(common) {
		total = b.mulFactor(total, f)
	}

	if len(b.emitted) > consumed {
		return false
	}
	if len(b.emitted) > 0 {
		r.inserts = append(r.inserts, insertion{before: root, items: b.emitted})
	}
	if total != root {
		replaceUses(r.p, root, total)
	}
	return true
}

// commonFactor returns a factor present in every term, or nil.
func commonFactor(terms []*term) *ir.Instr {
	if len(terms) == 0 {
		return nil
	}
	for _, cand := range terms[0].factors {
		inAll := true
		for _, tm := range terms[1:] {
			if !containsFactor(tm.factors, cand) {
				inAll = false
				break
			}
		}
		if inAll {
			return cand
		}
	}
	return nil
}

func containsFactor(fs []*ir.Instr, f *ir.Instr) bool {
	for _, x := range fs {
		if x == f {
			return true
		}
	}
	return false
}

func removeOne(fs []*ir.Instr, f *ir.Instr) []*ir.Instr {
	for i, x := range fs {
		if x == f {
			return append(fs[:i:i], fs[i+1:]...)
		}
	}
	return fs
}

func termLess(a, b *term) bool {
	la, lb := len(a.factors), len(b.factors)
	if la != lb {
		return la < lb
	}
	for i := range a.factors {
		if a.factors[i].ID != b.factors[i].ID {
			return a.factors[i].ID < b.factors[i].ID
		}
	}
	return false
}

func sortFactors(fs []*ir.Instr) []*ir.Instr {
	out := append([]*ir.Instr(nil), fs...)
	sort.Slice(out, func(i, j int) bool {
		// Scalars first (grouped before vectorization), then by ID.
		si, sj := out[i].Type.IsScalar(), out[j].Type.IsScalar()
		if si != sj {
			return si
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// fpBuilder emits canonical rebuilt arithmetic.
type fpBuilder struct {
	p       *ir.Program
	t       sem.Type
	emitted []*ir.Instr
}

func (b *fpBuilder) emit(in *ir.Instr) *ir.Instr {
	b.emitted = append(b.emitted, in)
	return in
}

func (b *fpBuilder) bin(op string, t sem.Type, x, y *ir.Instr) *ir.Instr {
	in := b.p.NewInstr(ir.OpBin, t, x, y)
	in.BinOp = op
	return b.emit(in)
}

// splat widens a scalar to the target width.
func (b *fpBuilder) splat(s *ir.Instr) *ir.Instr {
	if b.t.IsScalar() || s.Type.Equal(b.t) {
		return s
	}
	args := make([]*ir.Instr, b.t.Vec)
	for i := range args {
		args[i] = s
	}
	return b.emit(b.p.NewInstr(ir.OpConstruct, b.t, args...))
}

// add folds a running sum (nil-safe).
func (b *fpBuilder) add(total, v *ir.Instr) *ir.Instr {
	if v == nil {
		return total
	}
	if total == nil {
		return v
	}
	return b.bin("+", b.t, total, v)
}

// product multiplies coeff × factors, grouping scalar factors before
// splatting to vector width.
func (b *fpBuilder) product(factors []*ir.Instr, coeff float64) *ir.Instr {
	fs := sortFactors(factors)
	var scalarProd, vecProd *ir.Instr
	for _, f := range fs {
		switch {
		case f.Type.IsScalar():
			if scalarProd == nil {
				scalarProd = f
			} else {
				scalarProd = b.bin("*", sem.Float, scalarProd, f)
			}
		default:
			ff := f
			if !ff.Type.Equal(b.t) {
				// Width-mismatched factor (shouldn't happen; defensive).
				return nil
			}
			if vecProd == nil {
				vecProd = ff
			} else {
				vecProd = b.bin("*", b.t, vecProd, ff)
			}
		}
	}
	if coeff != 1 {
		if scalarProd != nil {
			c := newConst(b.p, sem.Float, ir.FloatConst(coeff))
			b.emit(c)
			scalarProd = b.bin("*", sem.Float, scalarProd, c)
		} else if vecProd != nil {
			return b.mulConst(vecProd, coeff)
		} else {
			c := newConst(b.p, b.t, ir.SplatFloat(coeff, b.t.Components()))
			return b.emit(c)
		}
	}
	switch {
	case scalarProd != nil && vecProd != nil:
		return b.bin("*", b.t, vecProd, b.splat(scalarProd))
	case scalarProd != nil:
		return b.splat(scalarProd)
	case vecProd != nil:
		return vecProd
	default:
		// Every factor was extracted as common (coeff 1 reaches here;
		// other coefficients returned above): the term is the constant 1.
		// Emitting it keeps sums like a·b + c·a·b ≡ a·b·(1 + c) intact —
		// returning nil here silently deleted the term (caught by the
		// differential-equivalence suite on the bloom family).
		c := newConst(b.p, b.t, ir.SplatFloat(1, b.t.Components()))
		return b.emit(c)
	}
}

// mulConst multiplies a value by a constant (splatted to width).
func (b *fpBuilder) mulConst(v *ir.Instr, c float64) *ir.Instr {
	if v == nil || c == 1 {
		return v
	}
	k := newConst(b.p, v.Type, ir.SplatFloat(c, v.Type.Components()))
	b.emit(k)
	return b.bin("*", v.Type, v, k)
}

// mulFactor multiplies the total by one common factor.
func (b *fpBuilder) mulFactor(total, f *ir.Instr) *ir.Instr {
	if total == nil {
		return f
	}
	if f.Type.IsScalar() && !b.t.IsScalar() {
		return b.bin("*", b.t, total, b.splat(f))
	}
	return b.bin("*", b.t, total, f)
}
