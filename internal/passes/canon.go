package passes

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// Canonicalize runs the always-on cleanup pipeline to a fixed point:
// constant folding and instruction simplification, store-to-load
// forwarding, local common subexpression elimination, dead store removal,
// and trivially-dead instruction elimination. LunarGlass keeps these
// enabled for every flag combination ("some were necessary passes to
// canonicalize instructions", §III-A); all measurements are relative to
// output that has been through this pipeline.
//
// Each fixed-point round does work linear in the program size, because
// no sub-pass rewrites uses eagerly. Folding, load forwarding and CSE
// record a replacement old → new in a forwarding table, and the walk
// resolves each instruction's operands through the table when it reaches
// the instruction. That is exact because the replaced instruction is
// always the one being visited: every use of it lies later in program
// order, so the walk resolves it before looking at it. Region headers
// (If.Cond, Loop bounds, While.CondVal), which no sub-pass inspects, are
// resolved together with every operand in one walk at the end of the
// sub-pass. Dead code goes in one use count plus a worklist that
// decrements operand counts as instructions die; removal only lowers
// counts, so this reaches the same fixed point as re-counting until
// nothing changes. The tables live in one scratch value (a rewriter)
// taken from a pool: reused, emptied rather than reallocated, across
// sub-passes and across calls.
func Canonicalize(p *ir.Program) {
	s := getRewriter()
	defer putRewriter(s)
	for i := 0; i < 16; i++ {
		changed := false
		if foldBlock(p, s, p.Body) {
			changed = true
		}
		s.splice(p)
		s.flush(p)
		s.facts.reset()
		if forwardLoads(s, p.Body) {
			changed = true
		}
		s.flush(p)
		if localCSE(p, s) {
			changed = true
		}
		s.flush(p)
		if removeDeadStores(p, s) {
			changed = true
		}
		if s.dce(p) {
			changed = true
		}
		if simplifyRegions(p) {
			changed = true
		}
		if !changed {
			break
		}
	}
	p.RenumberIDs()
}

// rewriter is the scratch state of one Canonicalize call (and of the
// flagged passes that share its sub-passes): the pending-replacement
// forwarding table, pending insertions, the value-numbering tables, the
// loaded-variable set, and the dead-code use counts and worklist. Every
// table is emptied by undoing what was put in it, never by a clear() of
// its whole capacity, so the rewriters in the pool keep their storage
// from call to call. cse is local CSE's table, which only Canonicalize
// uses.
type rewriter struct {
	// fwd is the forwarding table, indexed by the replaced instruction's
	// ID: a program's instructions have distinct IDs in 1..MaxID, and
	// those made during the call are numbered above. replaced lists the
	// IDs set, to empty it.
	fwd      []forward
	replaced []int
	inserts  []insertion
	facts    loadFacts
	cse      *valueTable
	scopes   []*valueTable // GVN's enclosing-scope tables, by depth
	loaded   map[*ir.Var]bool
	loads    []*ir.Var // keys of loaded, to empty it
	uses     ir.Uses
	work     []*ir.Instr
}

// forward is a fwd entry: from is replaced by to.
type forward struct{ from, to *ir.Instr }

// rewriters holds idle rewriters, every table empty.
var rewriters = sync.Pool{New: func() any { return newRewriter() }}

func getRewriter() *rewriter { return rewriters.Get().(*rewriter) }

// putRewriter returns s to the pool. Its tables are empty already; the
// instructions left in the spare capacity of its slices are dropped, so
// an idle rewriter keeps no program alive.
func putRewriter(s *rewriter) {
	s.facts.reset()
	s.cse.reset()
	for _, t := range s.scopes {
		t.reset()
	}
	clear(s.work[:cap(s.work)])
	s.work = s.work[:0]
	rewriters.Put(s)
}

// insertion is a pending insertBefore: items go immediately before the
// instruction before, in its block.
type insertion struct {
	before *ir.Instr
	items  []*ir.Instr
}

// splice places each insertion before its instruction in one walk of the
// program. ins must be in program order (the order WalkInstrs visits the
// instructions they go before), which is the order a walk that queues
// insertions for the instruction it is visiting produces. A pass that
// rewrites many roots queues each root's new instructions and splices
// them all at once, rather than searching the tree and copying a block
// per root.
func splice(p *ir.Program, ins []insertion) {
	if rest := spliceBlock(p.Body, ins); len(rest) > 0 {
		panic(fmt.Sprintf("splice: target %%%d not found", rest[0].before.ID))
	}
}

// spliceBlock splices into the block tree b the leading insertions of ins
// whose instructions it holds, and returns the rest. Only a block that
// receives instructions gets a new item slice.
func spliceBlock(b *ir.Block, ins []insertion) []insertion {
	var out []ir.Item
	for i, it := range b.Items {
		if len(ins) == 0 && out == nil {
			return ins
		}
		switch it := it.(type) {
		case *ir.Instr:
			for len(ins) > 0 && ins[0].before == it {
				if out == nil {
					out = append(make([]ir.Item, 0, len(b.Items)+len(ins[0].items)), b.Items[:i]...)
				}
				for _, ni := range ins[0].items {
					out = append(out, ni)
				}
				ins = ins[1:]
			}
		case *ir.If:
			ins = spliceBlock(it.Then, ins)
			if it.Else != nil {
				ins = spliceBlock(it.Else, ins)
			}
		case *ir.Loop:
			ins = spliceBlock(it.Body, ins)
		case *ir.While:
			ins = spliceBlock(it.Cond, ins)
			ins = spliceBlock(it.Body, ins)
		}
		if out != nil {
			out = append(out, it)
		}
	}
	if out != nil {
		b.Items = out
	}
	return ins
}

// newRewriter returns a rewriter with empty tables.
func newRewriter() *rewriter {
	return &rewriter{
		facts:  loadFacts{known: map[*ir.Var]*ir.Instr{}},
		cse:    newValueTable(0),
		loaded: map[*ir.Var]bool{},
	}
}

// replace records that every use of old reads new instead. The caller is
// visiting old, so every use still lies ahead of the walk.
func (s *rewriter) replace(old, new *ir.Instr) {
	if old.ID >= len(s.fwd) {
		s.fwd = slices.Grow(s.fwd, old.ID+1-len(s.fwd))
		s.fwd = s.fwd[:cap(s.fwd)]
	}
	if s.fwd[old.ID].from == nil {
		s.replaced = append(s.replaced, old.ID)
	}
	s.fwd[old.ID] = forward{old, new}
}

// resolve follows the forwarding chain from in to the value that
// finally replaces it (in itself when it was never replaced).
func (s *rewriter) resolve(in *ir.Instr) *ir.Instr {
	for in.ID < len(s.fwd) && s.fwd[in.ID].from == in {
		in = s.fwd[in.ID].to
	}
	return in
}

// resolveArgs rewrites in's operands to their final replacements.
func (s *rewriter) resolveArgs(in *ir.Instr) {
	if len(s.replaced) == 0 {
		return
	}
	for i, a := range in.Args {
		in.Args[i] = s.resolve(a)
	}
}

// flush applies every pending replacement to the whole program — all
// operands and region headers — in one walk, then empties the table.
func (s *rewriter) flush(p *ir.Program) {
	if len(s.replaced) == 0 {
		return
	}
	var walk func(b *ir.Block)
	walk = func(b *ir.Block) {
		for _, it := range b.Items {
			switch it := it.(type) {
			case *ir.Instr:
				s.resolveArgs(it)
			case *ir.If:
				it.Cond = s.resolve(it.Cond)
				walk(it.Then)
				if it.Else != nil {
					walk(it.Else)
				}
			case *ir.Loop:
				it.Start = s.resolve(it.Start)
				it.End = s.resolve(it.End)
				it.Step = s.resolve(it.Step)
				walk(it.Body)
			case *ir.While:
				walk(it.Cond)
				it.CondVal = s.resolve(it.CondVal)
				walk(it.Body)
			}
		}
	}
	walk(p.Body)
	for _, id := range s.replaced {
		s.fwd[id] = forward{}
	}
	s.replaced = s.replaced[:0]
}

// --- constant folding & instruction simplification ---

// foldBlock folds every instruction of the block tree in program order.
// Replacements and insertions go to s; the caller splices and flushes
// them.
func foldBlock(p *ir.Program, s *rewriter, b *ir.Block) bool {
	changed := false
	for _, it := range b.Items {
		switch it := it.(type) {
		case *ir.Instr:
			s.resolveArgs(it)
			if foldInstr(p, s, it) {
				changed = true
			}
		case *ir.If:
			if foldBlock(p, s, it.Then) {
				changed = true
			}
			if it.Else != nil && foldBlock(p, s, it.Else) {
				changed = true
			}
		case *ir.Loop:
			if foldBlock(p, s, it.Body) {
				changed = true
			}
		case *ir.While:
			if foldBlock(p, s, it.Cond) {
				changed = true
			}
			if foldBlock(p, s, it.Body) {
				changed = true
			}
		}
	}
	return changed
}

// insertBefore records that items go immediately before in, which the
// folding walk is visiting. Canonicalize splices them once the walk has
// finished — as if inserted at once, since the walk never visits
// instructions inserted behind it.
func (s *rewriter) insertBefore(in *ir.Instr, items ...*ir.Instr) {
	s.inserts = append(s.inserts, insertion{before: in, items: items})
}

// splice applies the pending insertions and empties the queue.
func (s *rewriter) splice(p *ir.Program) {
	if len(s.inserts) == 0 {
		return
	}
	splice(p, s.inserts)
	clear(s.inserts)
	s.inserts = s.inserts[:0]
}

func allConst(args []*ir.Instr) bool {
	for _, a := range args {
		if a.Op != ir.OpConst {
			return false
		}
	}
	return true
}

func constArgs(args []*ir.Instr) []*ir.ConstVal {
	out := make([]*ir.ConstVal, len(args))
	for i, a := range args {
		out[i] = a.Const
	}
	return out
}

// foldInstr folds or simplifies one instruction in place, recording a
// replacement of in itself in s. in's operands must already be resolved.
// It returns true when something changed.
func foldInstr(p *ir.Program, s *rewriter, in *ir.Instr) bool {
	switch in.Op {
	case ir.OpBin:
		// Canonical commutative order: constant second, else lower ID first.
		// Matrix multiplication does not commute; leave matrix forms alone.
		if isCommutative(in.Sym) &&
			!in.Args[0].Type.IsMatrix() && !in.Args[1].Type.IsMatrix() {
			x, y := in.Args[0], in.Args[1]
			if (x.Op == ir.OpConst && y.Op != ir.OpConst) ||
				(x.Op != ir.OpConst && y.Op != ir.OpConst && x.ID > y.ID) {
				in.Args[0], in.Args[1] = y, x
				return true
			}
		}
		if allConst(in.Args) {
			if v, ok := ir.EvalBinTyped(in.Sym, in.Args[0].Type, in.Args[1].Type, in.Args[0].Const, in.Args[1].Const); ok {
				makeConst(in, v)
				return true
			}
		}
	case ir.OpUn:
		if allConst(in.Args) {
			if v, ok := ir.EvalUn(in.Sym, in.Args[0].Const); ok {
				makeConst(in, v)
				return true
			}
		}
		// Double negation.
		if a := in.Args[0]; a.Op == ir.OpUn && a.Sym == in.Sym {
			s.replace(in, a.Args[0])
			return true
		}
	case ir.OpCall:
		if allConst(in.Args) {
			if v, ok := ir.EvalBuiltin(in.Sym, constArgs(in.Args)); ok {
				makeConst(in, v)
				return true
			}
		}
	case ir.OpConstruct:
		if allConst(in.Args) && !in.Type.IsSampler() {
			makeConst(in, ir.EvalConstruct(in.Type, constArgs(in.Args)))
			return true
		}
		// construct T(x) where x already has type T is a copy.
		if len(in.Args) == 1 && in.Args[0].Type.Equal(in.Type) {
			s.replace(in, in.Args[0])
			return true
		}
		// Reconstruction of a whole vector from its own components in
		// order: vecN(v.x, v.y, ...) -> v.
		if in.Type.IsVector() && len(in.Args) == in.Type.Vec {
			src := reconstructSource(in)
			if src != nil {
				s.replace(in, src)
				return true
			}
		}
	case ir.OpExtract:
		src := in.Args[0]
		switch {
		case src.Op == ir.OpConst:
			makeConst(in, ir.EvalExtract(src.Type, src.Const, in.Index))
			return true
		case src.Op == ir.OpConstruct:
			// Map the component through the construct operands.
			if arg, off, exact := constructComponent(src, in.Index, elemWidth(src.Type)); exact {
				s.replace(in, arg)
				return true
			} else if arg != nil && arg.Type.IsVector() && elemWidth(src.Type) == 1 {
				in.Args[0] = arg
				in.Index = off
				return true
			}
		case src.Op == ir.OpSwizzle:
			in.Args[0] = src.Args[0]
			in.Index = src.Indices[in.Index]
			return true
		case src.Op == ir.OpInsert:
			if src.Index == in.Index {
				if src.Args[1].Type.Equal(in.Type) {
					s.replace(in, src.Args[1])
					return true
				}
			} else {
				in.Args[0] = src.Args[0]
				return true
			}
		case src.Op == ir.OpSelect && src.Args[1].Op == ir.OpConst && src.Args[2].Op == ir.OpConst:
			// extract(select(c, k1, k2)) -> select(c, k1[i], k2[i])
			a := newConst(p, in.Type, ir.EvalExtract(src.Type, src.Args[1].Const, in.Index))
			bc := newConst(p, in.Type, ir.EvalExtract(src.Type, src.Args[2].Const, in.Index))
			s.insertBefore(in, a, bc)
			in.Op = ir.OpSelect
			in.Args = []*ir.Instr{src.Args[0], a, bc}
			in.Index = 0
			return true
		}
	case ir.OpExtractDyn:
		if in.Args[1].Op == ir.OpConst {
			idx := int(in.Args[1].Const.Int(0))
			n := aggLen(in.Args[0].Type)
			if idx < 0 {
				idx = 0
			}
			if idx >= n {
				idx = n - 1
			}
			in.Op = ir.OpExtract
			in.Index = idx
			in.Args = in.Args[:1]
			return true
		}
	case ir.OpInsertDyn:
		if in.Args[1].Op == ir.OpConst {
			idx := int(in.Args[1].Const.Int(0))
			n := aggLen(in.Args[0].Type)
			if idx < 0 {
				idx = 0
			}
			if idx >= n {
				idx = n - 1
			}
			in.Op = ir.OpInsert
			in.Index = idx
			in.Args = []*ir.Instr{in.Args[0], in.Args[2]}
			return true
		}
	case ir.OpSwizzle:
		src := in.Args[0]
		switch {
		case src.Op == ir.OpConst:
			makeConst(in, ir.EvalSwizzle(src.Const, in.Indices))
			return true
		case src.Op == ir.OpSwizzle:
			composed := make([]int, len(in.Indices))
			for i, ix := range in.Indices {
				composed[i] = src.Indices[ix]
			}
			in.Args[0] = src.Args[0]
			in.Indices = composed
			return true
		}
		// Identity swizzle.
		if len(in.Indices) == src.Type.Vec {
			id := true
			for i, ix := range in.Indices {
				if ix != i {
					id = false
				}
			}
			if id {
				s.replace(in, src)
				return true
			}
		}
	case ir.OpSelect:
		if in.Args[0].Op == ir.OpConst {
			if in.Args[0].Const.B[0] {
				s.replace(in, in.Args[1])
			} else {
				s.replace(in, in.Args[2])
			}
			return true
		}
		if in.Args[1] == in.Args[2] {
			s.replace(in, in.Args[1])
			return true
		}
	}
	return false
}

// reconstructSource detects vecN(v[0], v[1], ..., v[n-1]) and returns v.
func reconstructSource(in *ir.Instr) *ir.Instr {
	var src *ir.Instr
	for i, a := range in.Args {
		if a.Op != ir.OpExtract || a.Index != i {
			return nil
		}
		if src == nil {
			src = a.Args[0]
		} else if src != a.Args[0] {
			return nil
		}
	}
	if src != nil && src.Type.Equal(in.Type) {
		return src
	}
	return nil
}

// constructComponent maps flat component idx of a construct to the operand
// covering it. exact is true when the operand is exactly that component.
func constructComponent(c *ir.Instr, idx, width int) (arg *ir.Instr, off int, exact bool) {
	flat := idx * width
	for _, a := range c.Args {
		n := a.Type.Components()
		if flat < n {
			if n == width {
				return a, 0, true
			}
			if width == 1 && a.Type.IsVector() {
				return a, flat, false
			}
			return nil, 0, false
		}
		flat -= n
	}
	return nil, 0, false
}

func elemWidth(t sem.Type) int {
	switch {
	case t.IsArray():
		return t.Elem().Components()
	case t.IsMatrix():
		return t.Mat
	default:
		return 1
	}
}

func aggLen(t sem.Type) int {
	switch {
	case t.IsArray():
		return t.ArrayLen
	case t.IsMatrix():
		return t.Mat
	default:
		return t.Vec
	}
}

// insertBefore places new instructions immediately before target in the
// block tree rooted at b. Panics if target is not found (internal error).
func insertBefore(b *ir.Block, target *ir.Instr, newItems ...*ir.Instr) {
	if tryInsertBefore(b, target, newItems) {
		return
	}
	panic(fmt.Sprintf("insertBefore: target %%%d not found", target.ID))
}

func tryInsertBefore(b *ir.Block, target *ir.Instr, newItems []*ir.Instr) bool {
	for i, it := range b.Items {
		switch it := it.(type) {
		case *ir.Instr:
			if it == target {
				items := make([]ir.Item, 0, len(b.Items)+len(newItems))
				items = append(items, b.Items[:i]...)
				for _, ni := range newItems {
					items = append(items, ni)
				}
				items = append(items, b.Items[i:]...)
				b.Items = items
				return true
			}
		case *ir.If:
			if tryInsertBefore(it.Then, target, newItems) {
				return true
			}
			if it.Else != nil && tryInsertBefore(it.Else, target, newItems) {
				return true
			}
		case *ir.Loop:
			if tryInsertBefore(it.Body, target, newItems) {
				return true
			}
		case *ir.While:
			if tryInsertBefore(it.Cond, target, newItems) {
				return true
			}
			if tryInsertBefore(it.Body, target, newItems) {
				return true
			}
		}
	}
	return false
}

// --- store-to-load forwarding ---

// forwardLoads replaces loads with the most recent stored value when that
// value is known on every path, walking the region tree with appropriate
// invalidation. Replacements go to s; the caller flushes them. What a
// region learns is private to it: the walk rolls s.facts back to the
// region's entry instead of handing each region a copy.
func forwardLoads(s *rewriter, b *ir.Block) bool {
	f := &s.facts
	changed := false
	for _, item := range b.Items {
		switch item := item.(type) {
		case *ir.Instr:
			switch item.Op {
			case ir.OpLoad:
				if v, ok := f.known[item.Var]; ok && v != nil {
					s.replace(item, v)
					changed = true
				}
			case ir.OpStore:
				s.resolveArgs(item)
				f.set(item.Var, item.Args[0])
			}
		case *ir.If:
			entry := f.mark()
			if forwardLoads(s, item.Then) {
				changed = true
			}
			f.rollback(entry)
			if item.Else != nil {
				if forwardLoads(s, item.Else) {
					changed = true
				}
				f.rollback(entry)
				f.forgetStores(item.Else)
			}
			f.forgetStores(item.Then)
		case *ir.Loop:
			entry := f.mark()
			f.forgetStores(item.Body)
			f.forget(item.Counter)
			if forwardLoads(s, item.Body) {
				changed = true
			}
			f.rollback(entry)
			f.forgetStores(item.Body)
			f.forget(item.Counter)
		case *ir.While:
			entry := f.mark()
			f.forgetStores(item.Cond)
			f.forgetStores(item.Body)
			inner := f.mark()
			if forwardLoads(s, item.Cond) {
				changed = true
			}
			f.rollback(inner)
			if forwardLoads(s, item.Body) {
				changed = true
			}
			f.rollback(entry)
			f.forgetStores(item.Cond)
			f.forgetStores(item.Body)
		}
	}
	return changed
}

// loadFacts is forwardLoads' knowledge of the value each variable holds,
// with an undo journal: rollback(mark()) restores the facts as they were
// at the mark.
type loadFacts struct {
	known map[*ir.Var]*ir.Instr
	undo  []varFact
}

// varFact is one journalled prior state: v held val (had) or nothing.
type varFact struct {
	v   *ir.Var
	val *ir.Instr
	had bool
}

// reset forgets every fact. Every fact was journalled when it was set,
// so rolling the whole journal back empties known key by key.
func (f *loadFacts) reset() {
	f.rollback(0)
	clear(f.undo[:cap(f.undo)])
}

func (f *loadFacts) set(v *ir.Var, val *ir.Instr) {
	old, had := f.known[v]
	f.undo = append(f.undo, varFact{v, old, had})
	f.known[v] = val
}

func (f *loadFacts) forget(v *ir.Var) {
	if old, had := f.known[v]; had {
		f.undo = append(f.undo, varFact{v, old, true})
		delete(f.known, v)
	}
}

// forgetStores forgets every variable the block tree may write, loop
// counters included.
func (f *loadFacts) forgetStores(b *ir.Block) {
	for _, it := range b.Items {
		switch it := it.(type) {
		case *ir.Instr:
			if it.Op == ir.OpStore {
				f.forget(it.Var)
			}
		case *ir.If:
			f.forgetStores(it.Then)
			if it.Else != nil {
				f.forgetStores(it.Else)
			}
		case *ir.Loop:
			f.forget(it.Counter)
			f.forgetStores(it.Body)
		case *ir.While:
			f.forgetStores(it.Cond)
			f.forgetStores(it.Body)
		}
	}
}

func (f *loadFacts) mark() int { return len(f.undo) }

func (f *loadFacts) rollback(mark int) {
	for len(f.undo) > mark {
		x := f.undo[len(f.undo)-1]
		f.undo = f.undo[:len(f.undo)-1]
		if x.had {
			f.known[x.v] = x.val
		} else {
			delete(f.known, x.v)
		}
	}
}

// --- local CSE ---

// localCSE merges identical pure instructions within each straight-line
// block (the always-on subset of value numbering; the GVN flag extends it
// across nested regions). Replacements go to s; the caller flushes them.
// Blocks are visited pre-order, so every operand defined in an enclosing
// block has been resolved before a nested block reads it.
func localCSE(p *ir.Program, s *rewriter) bool {
	changed := false
	p.Body.WalkBlocks(func(b *ir.Block) {
		s.cse.reset()
		for _, it := range b.Items {
			in, ok := it.(*ir.Instr)
			if !ok || !in.IsPure() || !in.HasResult() {
				continue
			}
			s.resolveArgs(in)
			h := valueHash(in)
			if prev := s.cse.find(in, h); prev != nil {
				s.replace(in, prev)
				changed = true
			} else {
				s.cse.add(in, h)
			}
		}
	})
	return changed
}

// valueTable maps each pure instruction added to it by the value it
// computes, for local CSE and GVN. Instructions are bucketed by
// valueHash and matched by sameValue, so a lookup allocates nothing and a
// hash collision can never merge two different values. Value numbering
// runs on every canonicalization round of every enumeration step, so the
// table is reset and reused rather than rebuilt.
type valueTable struct {
	first    map[uint64]*ir.Instr // first instruction added per hash
	collided []*ir.Instr          // later ones whose hash was taken
	added    []uint64             // keys of first, for a reset in O(entries)
}

// newValueTable returns a table with room for n instructions.
func newValueTable(n int) *valueTable {
	return &valueTable{first: make(map[uint64]*ir.Instr, n)}
}

func (t *valueTable) reset() {
	for _, h := range t.added {
		delete(t.first, h)
	}
	t.added = t.added[:0]
	clear(t.collided)
	t.collided = t.collided[:0]
}

// find returns the instruction in the table computing the same value as
// in, whose valueHash is h, or nil.
func (t *valueTable) find(in *ir.Instr, h uint64) *ir.Instr {
	if prev, ok := t.first[h]; ok && sameValue(prev, in) {
		return prev
	}
	for _, prev := range t.collided {
		if sameValue(prev, in) {
			return prev
		}
	}
	return nil
}

// add records in, whose valueHash is h and which find did not match.
func (t *valueTable) add(in *ir.Instr, h uint64) {
	if _, taken := t.first[h]; taken {
		t.collided = append(t.collided, in)
		return
	}
	t.first[h] = in
	t.added = append(t.added, h)
}

// sameValue reports whether two pure instructions compute the same value:
// same opcode, result type and attributes, bit-identical constant
// payload, and the same operands.
func sameValue(a, b *ir.Instr) bool {
	if a.Op != b.Op || a.Type != b.Type || a.Sym != b.Sym || a.Index != b.Index || a.Global != b.Global ||
		len(a.Indices) != len(b.Indices) || len(a.Args) != len(b.Args) ||
		!sameConst(a.Const, b.Const) {
		return false
	}
	for i, ix := range a.Indices {
		if b.Indices[i] != ix {
			return false
		}
	}
	for i, x := range a.Args {
		if b.Args[i] != x {
			return false
		}
	}
	return true
}

func sameConst(a, b *ir.ConstVal) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.F) != len(b.F) || len(a.I) != len(b.I) || len(a.B) != len(b.B) {
		return false
	}
	for i, f := range a.F {
		if math.Float64bits(b.F[i]) != math.Float64bits(f) {
			return false
		}
	}
	for i, v := range a.I {
		if b.I[i] != v {
			return false
		}
	}
	for i, v := range a.B {
		if b.B[i] != v {
			return false
		}
	}
	return true
}

// valueHash hashes the fields sameValue compares (operands by ID, the
// global by name), so instructions with the same value hash equal.
func valueHash(in *ir.Instr) uint64 {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	word := func(v uint64) {
		h = (h ^ v) * 1099511628211
	}
	str := func(s string) {
		for i := 0; i < len(s); i++ {
			word(uint64(s[i]))
		}
		word(uint64(len(s)))
	}
	t := in.Type
	word(uint64(in.Op))
	word(uint64(t.Kind) | uint64(t.Dim)<<8 | uint64(t.Vec)<<16 | uint64(t.Mat)<<24 | uint64(t.ArrayLen)<<32)
	str(in.Sym)
	word(uint64(in.Index))
	if in.Global != nil {
		str(in.Global.Name)
	}
	for _, ix := range in.Indices {
		word(uint64(ix))
	}
	if c := in.Const; c != nil {
		for _, f := range c.F {
			word(math.Float64bits(f))
		}
		for _, v := range c.I {
			word(uint64(v))
		}
		for _, v := range c.B {
			if v {
				word(1)
			} else {
				word(2)
			}
		}
	}
	for _, a := range in.Args {
		word(uint64(a.ID))
	}
	return h
}

// --- dead store & dead code elimination ---

// removeDeadStores drops stores to non-output vars that are never loaded,
// and stores immediately overwritten within the same block.
func removeDeadStores(p *ir.Program, s *rewriter) bool {
	p.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpLoad && !s.loaded[in.Var] {
			s.loaded[in.Var] = true
			s.loads = append(s.loads, in.Var)
		}
	})
	defer s.forgetLoads()
	changed := false
	p.Body.WalkBlocks(func(b *ir.Block) {
		b.Items = filterItems(b.Items, func(i int, it ir.Item) bool {
			in, ok := it.(*ir.Instr)
			if !ok || in.Op != ir.OpStore {
				return false
			}
			if !in.Var.IsOutput && !s.loaded[in.Var] {
				changed = true
				return true
			}
			// Overwritten before any possible read: scan forward within the
			// block for a store to the same var with no load of it or
			// region in between.
			for j := i + 1; j < len(b.Items); j++ {
				next, ok := b.Items[j].(*ir.Instr)
				if !ok {
					return false // region: anything may read
				}
				if next.Op == ir.OpLoad && next.Var == in.Var {
					return false
				}
				if next.Op == ir.OpDiscard {
					return false
				}
				if next.Op == ir.OpStore && next.Var == in.Var {
					changed = true
					return true
				}
			}
			return false
		})
	})
	return changed
}

// forgetLoads empties the loaded set by deleting the keys it recorded.
func (s *rewriter) forgetLoads() {
	for _, v := range s.loads {
		delete(s.loaded, v)
	}
	clear(s.loads)
	s.loads = s.loads[:0]
}

// filterItems returns items without those drop reports, in order; drop
// sees every item once, in order. When nothing is dropped it returns
// items itself; otherwise the survivors go to a fresh slice, so a backing
// array another block may share is never written.
func filterItems(items []ir.Item, drop func(i int, it ir.Item) bool) []ir.Item {
	var out []ir.Item
	for i, it := range items {
		if drop(i, it) {
			if out == nil {
				out = make([]ir.Item, i, len(items)-1)
				copy(out, items[:i])
			}
			continue
		}
		if out != nil {
			out = append(out, it)
		}
	}
	if out == nil {
		return items
	}
	return out
}

// trivialDCE removes pure instructions and loads with no uses, to a fixed
// point (LLVM's isTriviallyDead loop — always on, which is why the ADCE
// flag never changes the output in practice, §VI-D1).
func trivialDCE(p *ir.Program) bool {
	s := getRewriter()
	defer putRewriter(s)
	return s.dce(p)
}

// dce is trivialDCE on s's scratch tables: one use count, then a worklist
// that retires each dead instruction's operand uses, so an operand whose
// count reaches zero dies in the same call. Removal only ever lowers
// counts, so this reaches the same fixed point as re-counting after every
// sweep.
func (s *rewriter) dce(p *ir.Program) bool {
	s.uses = p.CountUses(s.uses)
	s.work = s.work[:0]
	p.Body.WalkInstrs(func(in *ir.Instr) {
		if triviallyDead(in) && s.uses[in.ID] == 0 {
			s.work = append(s.work, in)
		}
	})
	if len(s.work) == 0 {
		return false
	}
	for len(s.work) > 0 {
		in := s.work[len(s.work)-1]
		s.work = s.work[:len(s.work)-1]
		for _, a := range in.Args {
			s.uses[a.ID]--
			if s.uses[a.ID] == 0 && triviallyDead(a) {
				s.work = append(s.work, a)
			}
		}
	}
	p.Body.WalkBlocks(func(b *ir.Block) {
		b.Items = filterItems(b.Items, func(_ int, it ir.Item) bool {
			in, ok := it.(*ir.Instr)
			return ok && triviallyDead(in) && s.uses[in.ID] == 0
		})
	})
	return true
}

// triviallyDead reports whether in may be removed once it has no uses:
// pure value-producing instructions and loads (reads have no side
// effects).
func triviallyDead(in *ir.Instr) bool {
	return in.Op == ir.OpLoad || (in.IsPure() && in.HasResult())
}

// simplifyRegions folds constant-condition ifs, removes empty regions, and
// deletes zero-trip loops.
func simplifyRegions(p *ir.Program) bool {
	changed := false
	var walk func(b *ir.Block) bool
	walk = func(b *ir.Block) bool {
		local := false
		// out stays nil until the first item is dropped or rewritten; a
		// block with no change keeps its slice.
		var out []ir.Item
		edit := func(i int) {
			local = true
			if out == nil {
				out = append(make([]ir.Item, 0, len(b.Items)), b.Items[:i]...)
			}
		}
		keep := func(it ir.Item) {
			if out != nil {
				out = append(out, it)
			}
		}
		for i, it := range b.Items {
			switch item := it.(type) {
			case *ir.If:
				if walk(item.Then) {
					local = true
				}
				if item.Else != nil && walk(item.Else) {
					local = true
				}
				if item.Cond.Op == ir.OpConst {
					edit(i)
					if item.Cond.Const.B[0] {
						out = append(out, item.Then.Items...)
					} else if item.Else != nil {
						out = append(out, item.Else.Items...)
					}
					continue
				}
				emptyThen := len(item.Then.Items) == 0
				emptyElse := item.Else == nil || len(item.Else.Items) == 0
				if emptyThen && emptyElse {
					edit(i)
					continue
				}
				if emptyThen && !emptyElse {
					// Invert: if(!c) else-branch.
					edit(i)
					neg := p.NewInstr(ir.OpUn, sem.Bool, item.Cond)
					neg.Sym = "!"
					out = append(out, neg)
					item.Cond = neg
					item.Then = item.Else
					item.Else = nil
					out = append(out, item)
					continue
				}
				keep(item)
			case *ir.Loop:
				if walk(item.Body) {
					local = true
				}
				if n, ok := item.TripCount(); ok && n == 0 {
					edit(i)
					continue
				}
				if len(item.Body.Items) == 0 {
					edit(i)
					continue
				}
				keep(item)
			case *ir.While:
				if walk(item.Cond) {
					local = true
				}
				if walk(item.Body) {
					local = true
				}
				condPure := len(storedVars(item.Cond)) == 0 && !hasDiscard(item.Cond)
				if item.CondVal.Op == ir.OpConst && !item.CondVal.Const.B[0] && condPure {
					edit(i)
					continue
				}
				keep(item)
			default:
				keep(it)
			}
		}
		if out != nil {
			b.Items = out
		}
		return local
	}
	for walk(p.Body) {
		changed = true
	}
	return changed
}

// sortedVarsByName is a helper for deterministic iteration in passes.
func sortedVarsByName(m map[*ir.Var]bool) []*ir.Var {
	out := make([]*ir.Var, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
