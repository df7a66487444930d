package ir

import (
	"fmt"
	"sync"

	"shaderopt/internal/sem"
)

// Program is a lowered fragment shader: interface globals, mutable slots,
// and a single structured body (user functions are fully inlined by the
// lowering stage, as in LunarGlass).
//
// A program hands out its instructions from chunks it owns (NewInstr), so
// one allocation serves many instructions. A chunk stays alive as long as
// any instruction in it, so the instructions a pass drops stay allocated
// while the program lives: a program kept past the call that built it is
// compacted first, by keeping its Clone, whose one chunk holds exactly the
// clone's instructions (IsCompact reports it). A program that dies in the
// call that built it hands its chunks back with Release instead, for the
// next program to fill. A Program must not be copied by value: two copies
// would hand out the same chunk slot.
type Program struct {
	noCopy noCopy

	Name     string
	Version  string // source #version, propagated to codegen
	Uniforms []*Global
	Inputs   []*Global
	Outputs  []*Var // subset of Vars with IsOutput
	Vars     []*Var

	Body *Block

	nextID int
	// free is the unused tail of the chunk NewInstr hands instructions
	// out from; chunks counts the chunks allocated so far and made the
	// instructions handed out of them.
	free   []Instr
	chunks int
	made   int
	// full holds the full-size chunks NewInstr started, which Release
	// hands back for a later program's NewInstr.
	full []*[fullChunk]Instr
	// scratch is the chunk and operand slab a whole-program clone
	// reserved, which Release hands back for a later CloneScratch.
	scratch storage
}

// noCopy makes go vet's copylocks check flag a Program copied by value.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// A chunk NewInstr starts holds minChunk instructions, doubling with each
// chunk up to minChunk<<maxChunkShift: a lowering grows its chunks with
// the program, while a pass adding a few instructions to a clone wastes
// little of one.
const (
	minChunk      = 8
	maxChunkShift = 3
	fullChunk     = minChunk << maxChunkShift
)

// fullChunks holds the full-size chunks of released programs.
var fullChunks sync.Pool

// NewProgram returns an empty program.
func NewProgram(name string) *Program {
	return &Program{Name: name, Body: &Block{}}
}

// NewInstr returns an instruction with a fresh ID, taken from the
// program's current chunk. The instruction is not inserted into any
// block.
func (p *Program) NewInstr(op Op, t sem.Type, args ...*Instr) *Instr {
	if len(p.free) == 0 {
		p.grow()
	}
	in := &p.free[0]
	p.free = p.free[1:]
	p.made++
	p.nextID++
	*in = Instr{ID: p.nextID, Op: op, Type: t, Args: args}
	return in
}

// grow starts NewInstr's next chunk. A full-size one is taken from a
// released program when there is one.
func (p *Program) grow() {
	n := minChunk << min(p.chunks, maxChunkShift)
	p.chunks++
	if n < fullChunk {
		p.free = make([]Instr, n)
		return
	}
	c, _ := fullChunks.Get().(*[fullChunk]Instr)
	if c == nil {
		c = new([fullChunk]Instr)
	}
	p.full = append(p.full, c)
	p.free = c[:]
}

// IsCompact reports whether the program's instructions fill one chunk with
// nothing else: every instruction the chunk handed out is in the body.
// A Clone is compact; a program a pass has dropped instructions from is
// not.
func (p *Program) IsCompact() bool {
	return p.chunks <= 1 && p.made == p.Body.CountInstrs()
}

// AddUniform registers a uniform global.
func (p *Program) AddUniform(name string, t sem.Type) *Global {
	g := &Global{Name: name, Type: t}
	p.Uniforms = append(p.Uniforms, g)
	return g
}

// AddInput registers a shader input.
func (p *Program) AddInput(name string, t sem.Type) *Global {
	g := &Global{Name: name, Type: t}
	p.Inputs = append(p.Inputs, g)
	return g
}

// AddOutput registers a shader output slot.
func (p *Program) AddOutput(name string, t sem.Type) *Var {
	v := &Var{Name: name, Type: t, IsOutput: true}
	p.Outputs = append(p.Outputs, v)
	p.Vars = append(p.Vars, v)
	return v
}

// AddVar registers a local mutable slot.
func (p *Program) AddVar(name string, t sem.Type) *Var {
	v := &Var{Name: name, Type: t}
	p.Vars = append(p.Vars, v)
	return v
}

// RenumberIDs reassigns dense instruction IDs in program order. Passes call
// this after structural rewrites so printing stays deterministic.
func (p *Program) RenumberIDs() {
	id := 0
	p.Body.WalkInstrs(func(in *Instr) {
		id++
		in.ID = id
	})
	p.nextID = id
}

// MaxID bounds the program's instruction IDs. Every instruction comes
// from NewInstr, which numbers it MaxID()+1, and RenumberIDs and the
// cloners number a body's instructions 1, 2, … in program order, so the
// instructions of the body have distinct IDs in 1..MaxID (Verify checks
// it). A table indexed by ID with MaxID()+1 entries covers them all.
func (p *Program) MaxID() int { return p.nextID }

// Uses is a per-instruction operand use count indexed by instruction ID,
// as CountUses builds it.
type Uses []int

// Of returns in's use count. An instruction created after the count was
// taken has none.
func (u Uses) Of(in *Instr) int {
	if in.ID < len(u) {
		return u[in.ID]
	}
	return 0
}

// CountUses returns the number of times each instruction's value is used
// as an operand anywhere in the program (loop bounds included). It counts
// into buf's storage when that is large enough, so a caller that counts
// repeatedly reuses one table; a nil buf allocates a fresh one.
func (p *Program) CountUses(buf Uses) Uses {
	uses := buf[:0]
	if n := p.nextID + 1; cap(uses) < n {
		uses = make(Uses, n)
	} else {
		uses = uses[:n]
		clear(uses)
	}
	var walk func(b *Block)
	walk = func(b *Block) {
		for _, it := range b.Items {
			switch it := it.(type) {
			case *Instr:
				for _, a := range it.Args {
					uses[a.ID]++
				}
			case *If:
				uses[it.Cond.ID]++
				walk(it.Then)
				if it.Else != nil {
					walk(it.Else)
				}
			case *Loop:
				uses[it.Start.ID]++
				uses[it.End.ID]++
				uses[it.Step.ID]++
				walk(it.Body)
			case *While:
				walk(it.Cond)
				uses[it.CondVal.ID]++
				walk(it.Body)
			}
		}
	}
	walk(p.Body)
	return uses
}

// Verify checks structural invariants:
//   - every instruction has its own ID, in 1..MaxID
//   - every operand is an instruction visible at its use site (defined
//     earlier in the same block or in an enclosing block before the region)
//   - operand and result types obey each opcode's typing rule
//   - Load/Store reference registered Vars; globals are registered
//
// It returns the first violation found.
func (p *Program) Verify() error {
	vars := make(map[*Var]bool, len(p.Vars))
	for _, v := range p.Vars {
		vars[v] = true
	}
	globals := make(map[*Global]bool, len(p.Uniforms)+len(p.Inputs))
	for _, g := range p.Uniforms {
		globals[g] = true
	}
	for _, g := range p.Inputs {
		globals[g] = true
	}
	n := p.nextID + 1
	v := &verifier{vars: vars, globals: globals, seen: make([]bool, n), visible: make([]*Instr, n)}
	return v.block(p.Body)
}

type verifier struct {
	vars    map[*Var]bool
	globals map[*Global]bool
	// seen marks every ID defined so far; visible holds, by ID, each
	// instruction visible at the current point of the walk.
	seen    []bool
	visible []*Instr
}

// isVisible reports whether in is defined before the current point of
// the walk, in the current block or an enclosing one.
func (v *verifier) isVisible(in *Instr) bool {
	return in.ID > 0 && in.ID < len(v.visible) && v.visible[in.ID] == in
}

func (v *verifier) block(b *Block) error {
	// Track which instructions this block defined, to remove visibility on
	// exit (siblings of an If arm must not see its definitions).
	var defined []*Instr
	defer func() {
		for _, in := range defined {
			v.visible[in.ID] = nil
		}
	}()
	for _, it := range b.Items {
		switch it := it.(type) {
		case *Instr:
			if it.ID < 1 || it.ID >= len(v.seen) {
				return fmt.Errorf("%%%d %s: ID outside 1..%d", it.ID, it.Op, len(v.seen)-1)
			}
			if v.seen[it.ID] {
				return fmt.Errorf("%%%d %s: duplicate instruction ID", it.ID, it.Op)
			}
			v.seen[it.ID] = true
			if err := v.instr(it); err != nil {
				return err
			}
			v.visible[it.ID] = it
			defined = append(defined, it)
		case *If:
			if !v.isVisible(it.Cond) {
				return fmt.Errorf("if condition %%%d not visible", it.Cond.ID)
			}
			if !it.Cond.Type.Equal(sem.Bool) {
				return fmt.Errorf("if condition %%%d has type %s", it.Cond.ID, it.Cond.Type)
			}
			if err := v.block(it.Then); err != nil {
				return err
			}
			if it.Else != nil {
				if err := v.block(it.Else); err != nil {
					return err
				}
			}
		case *Loop:
			for _, bound := range []*Instr{it.Start, it.End, it.Step} {
				if !v.isVisible(bound) {
					return fmt.Errorf("loop bound %%%d not visible", bound.ID)
				}
				if !bound.Type.Equal(sem.Int) {
					return fmt.Errorf("loop bound %%%d has type %s, want int", bound.ID, bound.Type)
				}
			}
			if !v.vars[it.Counter] {
				return fmt.Errorf("loop counter %q not a registered var", it.Counter.Name)
			}
			if err := v.block(it.Body); err != nil {
				return err
			}
		case *While:
			if err := v.block(it.Cond); err != nil {
				return err
			}
			// CondVal must be defined inside Cond; approximate by checking
			// it is an instruction of that block tree.
			found := false
			it.Cond.WalkInstrs(func(in *Instr) {
				if in == it.CondVal {
					found = true
				}
			})
			if !found {
				return fmt.Errorf("while condition value %%%d not inside cond block", it.CondVal.ID)
			}
			if !it.CondVal.Type.Equal(sem.Bool) {
				return fmt.Errorf("while condition %%%d has type %s", it.CondVal.ID, it.CondVal.Type)
			}
			if err := v.block(it.Body); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown block item %T", it)
		}
	}
	return nil
}

func (v *verifier) instr(in *Instr) error {
	for _, a := range in.Args {
		if a == nil {
			return fmt.Errorf("%%%d %s: nil operand", in.ID, in.Op)
		}
		if !v.isVisible(a) {
			return fmt.Errorf("%%%d %s: operand %%%d not visible at use", in.ID, in.Op, a.ID)
		}
		if !a.HasResult() {
			return fmt.Errorf("%%%d %s: operand %%%d produces no value", in.ID, in.Op, a.ID)
		}
	}
	nargs := func(n int) error {
		if len(in.Args) != n {
			return fmt.Errorf("%%%d %s: want %d args, got %d", in.ID, in.Op, n, len(in.Args))
		}
		return nil
	}
	switch in.Op {
	case OpConst:
		if err := nargs(0); err != nil {
			return err
		}
		if in.Const == nil {
			return fmt.Errorf("%%%d const: missing payload", in.ID)
		}
		if in.Const.Len() != in.Type.Components() {
			return fmt.Errorf("%%%d const: %d components for type %s", in.ID, in.Const.Len(), in.Type)
		}
	case OpUniform, OpInput:
		if err := nargs(0); err != nil {
			return err
		}
		if in.Global == nil || !v.globals[in.Global] {
			return fmt.Errorf("%%%d %s: unregistered global", in.ID, in.Op)
		}
		if !in.Type.Equal(in.Global.Type) {
			return fmt.Errorf("%%%d %s: type %s != global %s", in.ID, in.Op, in.Type, in.Global.Type)
		}
	case OpBin:
		if err := nargs(2); err != nil {
			return err
		}
		x, y := in.Args[0].Type, in.Args[1].Type
		if x.IsMatrix() || y.IsMatrix() {
			// Matrix algebra keeps GLSL's mixed-operand forms; the offline
			// scalarization pass removes them before codegen.
			res, err := sem.BinaryResult(in.Sym, x, y)
			if err != nil {
				return fmt.Errorf("%%%d bin %q: %v", in.ID, in.Sym, err)
			}
			if !in.Type.Equal(res) {
				return fmt.Errorf("%%%d bin %q: result %s, want %s", in.ID, in.Sym, in.Type, res)
			}
			return nil
		}
		if !x.Equal(y) {
			return fmt.Errorf("%%%d bin %q: operand types %s and %s differ", in.ID, in.Sym, x, y)
		}
		switch in.Sym {
		case "+", "-", "*", "/", "%":
			if !in.Type.Equal(x) {
				return fmt.Errorf("%%%d bin %q: result %s != operand %s", in.ID, in.Sym, in.Type, x)
			}
		case "<", ">", "<=", ">=", "==", "!=", "&&", "||", "^^":
			if !in.Type.Equal(sem.Bool) {
				return fmt.Errorf("%%%d bin %q: result %s, want bool", in.ID, in.Sym, in.Type)
			}
		default:
			return fmt.Errorf("%%%d bin: unknown operator %q", in.ID, in.Sym)
		}
	case OpUn:
		if err := nargs(1); err != nil {
			return err
		}
		if !in.Type.Equal(in.Args[0].Type) {
			return fmt.Errorf("%%%d un %q: result %s != operand %s", in.ID, in.Sym, in.Type, in.Args[0].Type)
		}
	case OpCall:
		if !sem.IsBuiltin(in.Sym) {
			return fmt.Errorf("%%%d call: unknown builtin %q", in.ID, in.Sym)
		}
		argTypes := make([]sem.Type, len(in.Args))
		for i, a := range in.Args {
			argTypes[i] = a.Type
		}
		res, err := sem.ResolveBuiltin(in.Sym, argTypes)
		if err != nil {
			return fmt.Errorf("%%%d call %s: %v", in.ID, in.Sym, err)
		}
		if !res.Equal(in.Type) {
			return fmt.Errorf("%%%d call %s: result %s, want %s", in.ID, in.Sym, in.Type, res)
		}
	case OpConstruct:
		total := 0
		for _, a := range in.Args {
			total += a.Type.Components()
		}
		if total != in.Type.Components() {
			return fmt.Errorf("%%%d construct %s: %d components provided", in.ID, in.Type, total)
		}
	case OpExtract:
		if err := nargs(1); err != nil {
			return err
		}
		if err := checkExtract(in.Args[0].Type, in.Index, in.Type); err != nil {
			return fmt.Errorf("%%%d extract: %v", in.ID, err)
		}
	case OpExtractDyn:
		if err := nargs(2); err != nil {
			return err
		}
		if !in.Args[1].Type.Equal(sem.Int) {
			return fmt.Errorf("%%%d extractdyn: index type %s", in.ID, in.Args[1].Type)
		}
		if err := checkExtract(in.Args[0].Type, 0, in.Type); err != nil {
			return fmt.Errorf("%%%d extractdyn: %v", in.ID, err)
		}
	case OpSwizzle:
		if err := nargs(1); err != nil {
			return err
		}
		src := in.Args[0].Type
		if !src.IsVector() {
			return fmt.Errorf("%%%d swizzle of non-vector %s", in.ID, src)
		}
		if len(in.Indices) < 2 || len(in.Indices) > 4 {
			return fmt.Errorf("%%%d swizzle width %d (use extract for scalars)", in.ID, len(in.Indices))
		}
		for _, ix := range in.Indices {
			if ix < 0 || ix >= src.Vec {
				return fmt.Errorf("%%%d swizzle index %d out of range", in.ID, ix)
			}
		}
		want := sem.VecType(src.Kind, len(in.Indices))
		if !in.Type.Equal(want) {
			return fmt.Errorf("%%%d swizzle: result %s, want %s", in.ID, in.Type, want)
		}
	case OpInsert:
		if err := nargs(2); err != nil {
			return err
		}
		if !in.Type.Equal(in.Args[0].Type) {
			return fmt.Errorf("%%%d insert: result %s != aggregate %s", in.ID, in.Type, in.Args[0].Type)
		}
		var elem sem.Type
		if err := func() error {
			var err error
			elem, err = extractType(in.Args[0].Type)
			return err
		}(); err != nil {
			return fmt.Errorf("%%%d insert: %v", in.ID, err)
		}
		if !in.Args[1].Type.Equal(elem) {
			return fmt.Errorf("%%%d insert: element %s, want %s", in.ID, in.Args[1].Type, elem)
		}
	case OpInsertDyn:
		if err := nargs(3); err != nil {
			return err
		}
		if !in.Args[1].Type.Equal(sem.Int) {
			return fmt.Errorf("%%%d insertdyn: index type %s", in.ID, in.Args[1].Type)
		}
		if !in.Type.Equal(in.Args[0].Type) {
			return fmt.Errorf("%%%d insertdyn: result %s != aggregate %s", in.ID, in.Type, in.Args[0].Type)
		}
	case OpSelect:
		if err := nargs(3); err != nil {
			return err
		}
		if !in.Args[0].Type.Equal(sem.Bool) {
			return fmt.Errorf("%%%d select: condition type %s", in.ID, in.Args[0].Type)
		}
		if !in.Args[1].Type.Equal(in.Args[2].Type) || !in.Type.Equal(in.Args[1].Type) {
			return fmt.Errorf("%%%d select: arm types %s/%s result %s", in.ID, in.Args[1].Type, in.Args[2].Type, in.Type)
		}
	case OpLoad:
		if err := nargs(0); err != nil {
			return err
		}
		if in.Var == nil || !v.vars[in.Var] {
			return fmt.Errorf("%%%d load: unregistered var", in.ID)
		}
		if !in.Type.Equal(in.Var.Type) {
			return fmt.Errorf("%%%d load: type %s != var %s", in.ID, in.Type, in.Var.Type)
		}
	case OpStore:
		if err := nargs(1); err != nil {
			return err
		}
		if in.Var == nil || !v.vars[in.Var] {
			return fmt.Errorf("%%%d store: unregistered var", in.ID)
		}
		if !in.Args[0].Type.Equal(in.Var.Type) {
			return fmt.Errorf("%%%d store: value %s != var %s", in.ID, in.Args[0].Type, in.Var.Type)
		}
	case OpDiscard:
		return nargs(0)
	default:
		return fmt.Errorf("%%%d: unknown op %d", in.ID, int(in.Op))
	}
	return nil
}

// extractType returns the element type produced by extracting from t.
func extractType(t sem.Type) (sem.Type, error) {
	switch {
	case t.IsArray():
		return t.Elem(), nil
	case t.IsMatrix():
		return sem.VecType(sem.KindFloat, t.Mat), nil
	case t.IsVector():
		return t.ScalarOf(), nil
	}
	return sem.Void, fmt.Errorf("cannot extract from %s", t)
}

func checkExtract(src sem.Type, idx int, res sem.Type) error {
	elem, err := extractType(src)
	if err != nil {
		return err
	}
	n := src.Vec
	if src.IsMatrix() {
		n = src.Mat
	}
	if src.IsArray() {
		n = src.ArrayLen
	}
	if idx < 0 || idx >= n {
		return fmt.Errorf("index %d out of range for %s", idx, src)
	}
	if !res.Equal(elem) {
		return fmt.Errorf("result %s, want %s", res, elem)
	}
	return nil
}
