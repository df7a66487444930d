package ir

import (
	"slices"
	"sync"
)

// Clone deep-copies the whole program. Interface globals and Var slots are
// shared (they are identity-keyed and never mutated by passes; passes only
// add new ones), while every instruction and block is duplicated, so the
// clone can be optimized independently of the original. The clone's
// instructions are numbered densely in program order, as RenumberIDs
// would number them, and fill one chunk with nothing else (IsCompact), so
// a program that is kept is kept as its clone.
func (p *Program) Clone() *Program { return p.clone(nil) }

// CloneScratch is Clone for a copy the caller hands back with Release as
// soon as it is done with it: the copy may take over the chunk and the
// operand slab of a program released earlier, when they fit it.
func (p *Program) CloneScratch() *Program {
	s, _ := released.Get().(*storage)
	return p.clone(s)
}

// Release hands back the storage p owns for later programs to reuse: the
// chunk and operand slab a clone reserved, for a later CloneScratch, and
// the full-size chunks NewInstr started, for a later NewInstr. A program
// that dies in the call that built it (a scratch clone, a transient
// lowering or re-ingestion) is released there. Nothing may refer to p or
// to any of its instructions afterwards.
func (p *Program) Release() {
	for _, c := range p.full {
		clear(c[:])
		fullChunks.Put(c)
	}
	s := p.scratch
	p.full, p.scratch, p.free, p.Body = nil, storage{}, nil, nil
	if s.chunk == nil {
		return
	}
	clear(s.chunk)
	clear(s.args)
	released.Put(&s)
}

// storage is a clone's chunk and operand slab, each at its full capacity.
type storage struct {
	chunk []Instr
	args  []*Instr
}

// released holds the storage of released programs.
var released sync.Pool

// fits reports whether a released buffer of capacity c serves n entries
// without pinning much more than a fresh one would.
func fits(c, n int) bool { return n <= c && c <= n+n/2+minChunk }

func (p *Program) clone(s *storage) *Program {
	np := &Program{
		Name:     p.Name,
		Version:  p.Version,
		Uniforms: append([]*Global(nil), p.Uniforms...),
		Inputs:   append([]*Global(nil), p.Inputs...),
		Outputs:  append([]*Var(nil), p.Outputs...),
		Vars:     append([]*Var(nil), p.Vars...),
	}
	c := &cloner{p: np, byID: make([]clonedInstr, p.nextID+1)}
	c.reserve(p.Body, s)
	np.scratch = storage{chunk: np.free, args: c.args}
	np.Body = c.block(p.Body)
	return np
}

// CloneBlock deep-copies a block tree of p into p. Instructions defined
// inside the block are duplicated with fresh IDs above MaxID; operand
// references to instructions defined outside the block are preserved.
// varSubst maps Vars to replacement Vars (nil entries keep the original).
func (p *Program) CloneBlock(b *Block, varSubst map[*Var]*Var) *Block {
	// The substitution table spans only the block's own IDs: unrolling
	// clones a small loop body of a large program once per iteration.
	lo, hi := p.nextID+1, 0
	b.WalkInstrs(func(in *Instr) {
		lo = min(lo, in.ID)
		hi = max(hi, in.ID)
	})
	c := &cloner{p: p, base: lo, byID: make([]clonedInstr, max(hi-lo+1, 0)), varSubst: varSubst}
	c.reserve(b, nil)
	return c.block(b)
}

// CloneRemapped deep-copies the program while substituting every Global
// and Var reference through the given maps: the declaration lists and
// every instruction operand are rewritten to the mapped slots, and IDs
// are numbered densely in program order. The mobile ES conversion
// (crossc.ESFromIR) uses it to map every slot onto a fresh one with a
// synthetic name, the name loss of the paper's SPIR-V tool chain. The
// substitution is strict — a Global or Var the program declares or
// references that is absent from its map (e.g. one a pass synthesized
// after the maps were built) fails the clone, returning (nil, false) so
// the caller recomputes or reports an error instead of keeping a
// wrongly-named slot. Name and Version still carry the receiver's
// values; the caller overwrites them. Like CloneScratch, the copy may
// take over a released program's storage, and Release hands it back.
func (p *Program) CloneRemapped(globals map[*Global]*Global, vars map[*Var]*Var) (*Program, bool) {
	np := &Program{Name: p.Name, Version: p.Version}
	c := &cloner{p: np, byID: make([]clonedInstr, p.nextID+1), varSubst: vars, globalSubst: globals, strict: true}
	s, _ := released.Get().(*storage)
	c.reserve(p.Body, s)
	np.scratch = storage{chunk: np.free, args: c.args}
	np.Uniforms = make([]*Global, len(p.Uniforms))
	for i, g := range p.Uniforms {
		np.Uniforms[i] = c.globalRef(g)
	}
	np.Inputs = make([]*Global, len(p.Inputs))
	for i, g := range p.Inputs {
		np.Inputs[i] = c.globalRef(g)
	}
	np.Vars = make([]*Var, len(p.Vars))
	for i, v := range p.Vars {
		np.Vars[i] = c.variable(v)
	}
	np.Outputs = make([]*Var, len(p.Outputs))
	for i, v := range p.Outputs {
		np.Outputs[i] = c.variable(v)
	}
	np.Body = c.block(p.Body)
	if c.failed {
		return nil, false
	}
	return np, true
}

// A cloner copies instructions into p, which numbers the copies in the
// order the walk makes them: program order, for a whole-program clone
// into a fresh program.
type cloner struct {
	p *Program
	// byID maps each instruction cloned so far to its copy, indexed by
	// the source's ID less base. The source's IDs are distinct and
	// within 1..MaxID: a whole-program clone uses MaxID+1 entries from
	// base 0, CloneBlock only the span of the block's IDs. An
	// instruction without an entry, one defined outside the cloned
	// block, resolves to itself.
	byID     []clonedInstr
	base     int
	varSubst map[*Var]*Var

	// globalSubst, strict, and failed serve CloneRemapped: globalSubst
	// rewrites interface-global references the way varSubst rewrites
	// Vars, and strict turns any unmapped Global or Var into a recorded
	// failure instead of a silent pass-through.
	globalSubst map[*Global]*Global
	strict      bool
	failed      bool

	// args is the unused tail of the operand slab the copies' Args are
	// cut from.
	args []*Instr
}

// reserve sizes a clone's storage from the source block: room in the
// target's chunk for its instructions and one slab for their operands.
// Each is taken from s when it fits, and otherwise allocated with the
// slack up to its allocator size class left for later passes.
func (c *cloner) reserve(b *Block, s *storage) {
	n, nargs := 0, 0
	b.WalkInstrs(func(in *Instr) {
		n++
		nargs += len(in.Args)
	})
	if s == nil {
		s = &storage{}
	}
	if n > len(c.p.free) {
		if !fits(cap(s.chunk), n) {
			s.chunk = slices.Grow([]Instr(nil), n)
		}
		c.p.free = s.chunk[:cap(s.chunk)]
		c.p.chunks++
	}
	if !fits(cap(s.args), nargs) {
		s.args = slices.Grow([]*Instr(nil), nargs)
	}
	c.args = s.args[:cap(s.args)]
}

// clonedInstr is a byID entry: the source instruction and its copy.
type clonedInstr struct{ from, to *Instr }

func (c *cloner) resolve(in *Instr) *Instr {
	if i := in.ID - c.base; uint(i) < uint(len(c.byID)) && c.byID[i].from == in {
		return c.byID[i].to
	}
	return in
}

func (c *cloner) variable(v *Var) *Var {
	if r, ok := c.varSubst[v]; ok && r != nil {
		return r
	}
	if c.strict {
		c.failed = true
	}
	return v
}

func (c *cloner) globalRef(g *Global) *Global {
	if g == nil || c.globalSubst == nil {
		return g
	}
	if r, ok := c.globalSubst[g]; ok && r != nil {
		return r
	}
	if c.strict {
		c.failed = true
	}
	return g
}

func (c *cloner) block(b *Block) *Block {
	out := &Block{Items: make([]Item, 0, len(b.Items))}
	for _, it := range b.Items {
		switch it := it.(type) {
		case *Instr:
			ni := c.instr(it)
			out.Items = append(out.Items, ni)
		case *If:
			ni := &If{Cond: c.resolve(it.Cond), Then: c.block(it.Then)}
			if it.Else != nil {
				ni.Else = c.block(it.Else)
			}
			out.Items = append(out.Items, ni)
		case *Loop:
			ni := &Loop{
				Counter: c.variable(it.Counter),
				Start:   c.resolve(it.Start),
				End:     c.resolve(it.End),
				Step:    c.resolve(it.Step),
				Body:    c.block(it.Body),
			}
			out.Items = append(out.Items, ni)
		case *While:
			cond := c.block(it.Cond)
			ni := &While{
				Cond:    cond,
				CondVal: c.resolve(it.CondVal),
				Body:    c.block(it.Body),
				MaxIter: it.MaxIter,
			}
			out.Items = append(out.Items, ni)
		}
	}
	return out
}

func (c *cloner) instr(in *Instr) *Instr {
	ni := c.p.NewInstr(in.Op, in.Type)
	ni.Sym = in.Sym
	ni.Index = in.Index
	ni.Indices = in.Indices // never written in place, so shared
	if in.Var != nil {
		ni.Var = c.variable(in.Var)
	}
	ni.Global = c.globalRef(in.Global)
	ni.Const = in.Const // immutable, so shared too
	// Cut from the slab with the capacity of their length, so an append
	// to one instruction's operands reallocates them instead of writing
	// into the next instruction's.
	n := len(in.Args)
	ni.Args = c.args[:n:n]
	c.args = c.args[n:]
	for i, a := range in.Args {
		ni.Args[i] = c.resolve(a)
	}
	c.byID[in.ID-c.base] = clonedInstr{in, ni}
	return ni
}
