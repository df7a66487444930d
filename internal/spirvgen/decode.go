package spirvgen

import (
	"encoding/binary"
	"fmt"
	"math"

	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// Decode reconstructs an IR program from a SPIR-V word stream produced by
// Emit. Interface names are recovered from OpName debug instructions;
// constants, which SPIR-V hoists to module scope and deduplicates, are
// re-materialized lazily at each use site so the decoded program satisfies
// the IR's block-scoped visibility rules.
func Decode(words []uint32, name string) (*ir.Program, error) {
	if len(words) < 5 {
		return nil, fmt.Errorf("spirvgen: module too short")
	}
	if words[0] != Magic {
		return nil, fmt.Errorf("spirvgen: bad magic %#x", words[0])
	}
	if words[1] != Version {
		return nil, fmt.Errorf("spirvgen: unsupported version %#x", words[1])
	}
	d := &decoder{
		p:       ir.NewProgram(name),
		types:   map[uint32]sem.Type{},
		ptrs:    map[uint32]ptrInfo{},
		consts:  map[uint32]constInfo{},
		names:   map[uint32]string{},
		globals: map[uint32]globalInfo{},
		vars:    map[uint32]*ir.Var{},
		vals:    map[uint32]*ir.Instr{},
		images:  map[uint32]*ir.Instr{},
		blocks:  map[uint32]*sblock{},
	}
	if err := d.module(words[5:]); err != nil {
		return nil, err
	}
	if d.entry == 0 {
		return nil, fmt.Errorf("spirvgen: module has no function body")
	}
	d.push(d.p.Body)
	if err := d.region(d.entry, 0); err != nil {
		return nil, err
	}
	d.pop()
	d.p.RenumberIDs()
	if err := d.p.Verify(); err != nil {
		return nil, fmt.Errorf("spirvgen: decoded module invalid: %w", err)
	}
	return d.p, nil
}

// DecodeBytes decodes a little-endian SPIR-V binary.
func DecodeBytes(b []byte, name string) (*ir.Program, error) {
	words, err := DecodeWords(b)
	if err != nil {
		return nil, err
	}
	return Decode(words, name)
}

// DecodeWords unpacks a little-endian SPIR-V byte stream into words —
// the inverse of EmitBytes' framing, without interpreting the module.
func DecodeWords(b []byte) ([]uint32, error) {
	if len(b)%4 != 0 {
		return nil, fmt.Errorf("spirvgen: byte length %d not word-aligned", len(b))
	}
	words := make([]uint32, len(b)/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return words, nil
}

type ptrInfo struct {
	storage uint32
	t       sem.Type
}

type constInfo struct {
	t sem.Type
	c *ir.ConstVal
}

type globalInfo struct {
	g  *ir.Global
	op ir.Op // OpUniform or OpInput
}

// sblock is a raw SPIR-V basic block: instructions, an optional merge
// declaration, and a terminator. next is the sequentially following block,
// used to resume after OpKill. decoded marks a block region has entered:
// structured control flow reaches each block once, so a second visit is
// a cycle the decoder rejects instead of following forever.
type sblock struct {
	id      uint32
	instrs  [][]uint32
	merge   []uint32
	term    []uint32
	next    uint32
	decoded bool
}

type scope struct {
	b    *ir.Block
	memo map[uint32]*ir.Instr // constants materialized in this scope
}

type decoder struct {
	p       *ir.Program
	types   map[uint32]sem.Type
	ptrs    map[uint32]ptrInfo
	consts  map[uint32]constInfo
	names   map[uint32]string
	globals map[uint32]globalInfo
	vars    map[uint32]*ir.Var
	vals    map[uint32]*ir.Instr
	images  map[uint32]*ir.Instr // OpImage result → sampler load instr
	blocks  map[uint32]*sblock
	extSet  uint32
	entry   uint32
	scopes  []scope

	// lastBlock tracks emission order so OpKill can fall through to the
	// sequentially following (unreachable) resume block.
	lastBlock *sblock
}

func (d *decoder) push(b *ir.Block) {
	d.scopes = append(d.scopes, scope{b: b, memo: map[uint32]*ir.Instr{}})
}

func (d *decoder) pop() { d.scopes = d.scopes[:len(d.scopes)-1] }

func (d *decoder) cur() *scope { return &d.scopes[len(d.scopes)-1] }

func (d *decoder) name(id uint32, prefix string) string {
	if n, ok := d.names[id]; ok && n != "" {
		return n
	}
	return fmt.Sprintf("%s%d", prefix, id)
}

// minWords is the smallest word count (opcode word included) of each
// opcode whose operands module, region and loop read directly. module
// checks it once per instruction, so those readers index operands
// without guards of their own; function-body instructions decoded by
// instr check their own counts with need.
var minWords = map[uint32]int{
	opSource: 3, opName: 3, opExtInstImport: 3, opVariable: 4,
	opTypeVoid: 2, opTypeBool: 2, opTypeInt: 4, opTypeFloat: 3,
	opTypeVector: 4, opTypeMatrix: 4, opTypeImage: 9, opTypeSampledImage: 3,
	opTypeArray: 4, opTypePointer: 4,
	opConstantTrue: 3, opConstantFalse: 3, opConstant: 5, opConstantComposite: 3,
	opLabel: 2, opSelectionMerge: 3, opLoopMerge: 4, opBranch: 2, opBranchConditional: 4,
}

// module scans the module-level instructions, registering types,
// constants, and interface variables, and splits the function body into
// basic blocks.
func (d *decoder) module(words []uint32) error {
	pos := 0
	inFunction := false
	var blk *sblock
	endBlock := func(term []uint32) {
		blk.term = term
		blk = nil
	}
	for pos < len(words) {
		head := words[pos]
		wc := int(head >> 16)
		opc := head & 0xffff
		if wc == 0 || pos+wc > len(words) {
			return fmt.Errorf("spirvgen: truncated instruction at word %d", pos+5)
		}
		w := words[pos : pos+wc]
		pos += wc
		if wc < minWords[opc] {
			return fmt.Errorf("spirvgen: opcode %d: want %d words, got %d", opc, minWords[opc], wc)
		}

		if inFunction {
			switch opc {
			case opFunctionEnd:
				inFunction = false
			case opLabel:
				nb := &sblock{id: w[1]}
				if blk != nil {
					return fmt.Errorf("spirvgen: label %d inside unterminated block", w[1])
				}
				if prev := d.lastBlock; prev != nil {
					prev.next = nb.id
				}
				d.blocks[nb.id] = nb
				d.lastBlock = nb
				if d.entry == 0 {
					d.entry = nb.id
				}
				blk = nb
			case opSelectionMerge, opLoopMerge:
				if blk == nil {
					return fmt.Errorf("spirvgen: merge outside block")
				}
				blk.merge = w
			case opBranch, opBranchConditional, opReturn, opKill:
				if blk == nil {
					return fmt.Errorf("spirvgen: terminator outside block")
				}
				endBlock(w)
			default:
				if blk == nil {
					return fmt.Errorf("spirvgen: instruction outside block")
				}
				blk.instrs = append(blk.instrs, w)
			}
			continue
		}

		switch opc {
		case opCapability, opMemoryModel, opEntryPoint, opExecutionMode, opDecorate:
			// Checked by Validate; not needed for reconstruction.
		case opSource:
			if w[1] == sourceLangESSL {
				d.p.Version = fmt.Sprintf("%d es", w[2])
			} else {
				d.p.Version = fmt.Sprintf("%d", w[2])
			}
		case opName:
			s, _ := decodeString(w[2:])
			d.names[w[1]] = s
		case opExtInstImport:
			if s, _ := decodeString(w[2:]); s == glslStd450 {
				d.extSet = w[1]
			}
		case opTypeVoid:
			d.types[w[1]] = sem.Void
		case opTypeBool:
			d.types[w[1]] = sem.Bool
		case opTypeInt:
			if w[2] != 64 || w[3] != 1 {
				return fmt.Errorf("spirvgen: only signed 64-bit integers supported")
			}
			d.types[w[1]] = sem.Int
		case opTypeFloat:
			if w[2] != 64 {
				return fmt.Errorf("spirvgen: only 64-bit floats supported")
			}
			d.types[w[1]] = sem.Float
		case opTypeVector:
			comp, ok := d.types[w[2]]
			if !ok || !comp.IsScalar() || w[3] < 2 || w[3] > 4 {
				return fmt.Errorf("spirvgen: bad vector type")
			}
			d.types[w[1]] = sem.VecType(comp.Kind, int(w[3]))
		case opTypeMatrix:
			col, ok := d.types[w[2]]
			if !ok || !col.IsVector() {
				return fmt.Errorf("spirvgen: bad matrix type")
			}
			if int(w[3]) != col.Vec {
				return fmt.Errorf("spirvgen: only square matrices supported")
			}
			d.types[w[1]] = sem.MatType(col.Vec)
		case opTypeArray:
			elem, ok := d.types[w[2]]
			lenC, ok2 := d.consts[w[3]]
			if !ok || !ok2 || lenC.t != sem.Int || lenC.c.Int(0) < 1 || elem.IsArray() {
				return fmt.Errorf("spirvgen: bad array type")
			}
			t := elem
			t.ArrayLen = int(lenC.c.Int(0))
			d.types[w[1]] = t
		case opTypeImage:
			dim, err := dimName(w[3], w[4], w[5])
			if err != nil {
				return err
			}
			d.types[w[1]] = sem.SamplerType(dim)
		case opTypeSampledImage:
			img, ok := d.types[w[2]]
			if !ok {
				return fmt.Errorf("spirvgen: sampled image of unknown type")
			}
			d.types[w[1]] = img
		case opTypePointer:
			t, ok := d.types[w[3]]
			if !ok {
				return fmt.Errorf("spirvgen: bad pointer type")
			}
			d.ptrs[w[1]] = ptrInfo{storage: w[2], t: t}
		case opTypeFunction:
			// void() — nothing to record.
		case opConstantTrue, opConstantFalse:
			t, ok := d.types[w[1]]
			if !ok {
				return fmt.Errorf("spirvgen: constant of unknown type")
			}
			d.consts[w[2]] = constInfo{t: t, c: ir.BoolConst(opc == opConstantTrue)}
		case opConstant:
			t, ok := d.types[w[1]]
			if !ok {
				return fmt.Errorf("spirvgen: bad OpConstant")
			}
			bits := uint64(w[3]) | uint64(w[4])<<32
			var c *ir.ConstVal
			switch t.Kind {
			case sem.KindFloat:
				c = ir.FloatConst(math.Float64frombits(bits))
			case sem.KindInt:
				c = ir.IntConst(int64(bits))
			default:
				return fmt.Errorf("spirvgen: OpConstant of type %s", t)
			}
			d.consts[w[2]] = constInfo{t: t, c: c}
		case opConstantComposite:
			t, ok := d.types[w[1]]
			if !ok {
				return fmt.Errorf("spirvgen: composite constant of unknown type")
			}
			c := &ir.ConstVal{}
			for _, part := range w[3:] {
				pc, ok := d.consts[part]
				if !ok {
					return fmt.Errorf("spirvgen: composite references unknown constant %d", part)
				}
				c.Kind = pc.c.Kind
				c.F = append(c.F, pc.c.F...)
				c.I = append(c.I, pc.c.I...)
				c.B = append(c.B, pc.c.B...)
			}
			d.consts[w[2]] = constInfo{t: t, c: c}
		case opVariable:
			pi, ok := d.ptrs[w[1]]
			if !ok {
				return fmt.Errorf("spirvgen: bad module variable")
			}
			id := w[2]
			switch w[3] {
			case storageUniformConstant:
				d.globals[id] = globalInfo{g: d.p.AddUniform(d.name(id, "u"), pi.t), op: ir.OpUniform}
			case storageInput:
				d.globals[id] = globalInfo{g: d.p.AddInput(d.name(id, "in"), pi.t), op: ir.OpInput}
			case storageOutput:
				d.vars[id] = d.p.AddOutput(d.name(id, "out"), pi.t)
			default:
				return fmt.Errorf("spirvgen: module variable with storage class %d", w[3])
			}
		case opFunction:
			inFunction = true
		default:
			return fmt.Errorf("spirvgen: unexpected module-level opcode %d", opc)
		}
	}
	if blk != nil {
		return fmt.Errorf("spirvgen: unterminated block %d", blk.id)
	}
	return nil
}

// resolve returns the instruction producing id, materializing module
// constants into the current block on first use within a scope.
func (d *decoder) resolve(id uint32) (*ir.Instr, error) {
	if in, ok := d.vals[id]; ok {
		return in, nil
	}
	for i := len(d.scopes) - 1; i >= 0; i-- {
		if in, ok := d.scopes[i].memo[id]; ok {
			return in, nil
		}
	}
	if ci, ok := d.consts[id]; ok {
		in := d.p.NewInstr(ir.OpConst, ci.t)
		in.Const = ci.c.Clone()
		s := d.cur()
		s.b.Append(in)
		s.memo[id] = in
		return in, nil
	}
	return nil, fmt.Errorf("spirvgen: unknown value id %d", id)
}

// region decodes basic blocks into the current IR block until control
// reaches stop (0 = decode to OpReturn).
func (d *decoder) region(bid, stop uint32) error {
	for {
		blk := d.blocks[bid]
		if blk == nil {
			return fmt.Errorf("spirvgen: branch to unknown block %d", bid)
		}
		if blk.decoded {
			return fmt.Errorf("spirvgen: block %d reached twice", bid)
		}
		blk.decoded = true
		for _, iw := range blk.instrs {
			if err := d.instr(iw); err != nil {
				return err
			}
		}
		t := blk.term
		switch t[0] & 0xffff {
		case opReturn:
			if stop != 0 {
				return fmt.Errorf("spirvgen: OpReturn inside structured region")
			}
			return nil
		case opKill:
			d.cur().b.Append(d.p.NewInstr(ir.OpDiscard, sem.Void))
			if blk.next == 0 {
				return fmt.Errorf("spirvgen: no block after OpKill")
			}
			bid = blk.next
		case opBranch:
			target := t[1]
			if target == stop {
				return nil
			}
			tb := d.blocks[target]
			if tb != nil && tb.merge != nil && tb.merge[0]&0xffff == opLoopMerge {
				merge, err := d.loop(target)
				if err != nil {
					return err
				}
				if merge == stop {
					return nil
				}
				bid = merge
			} else {
				bid = target
			}
		case opBranchConditional:
			if blk.merge == nil || blk.merge[0]&0xffff != opSelectionMerge {
				return fmt.Errorf("spirvgen: conditional branch without OpSelectionMerge")
			}
			merge := blk.merge[1]
			cond, err := d.resolve(t[1])
			if err != nil {
				return err
			}
			node := &ir.If{Cond: cond, Then: &ir.Block{}}
			d.cur().b.Append(node)
			d.push(node.Then)
			if err := d.region(t[2], merge); err != nil {
				return err
			}
			d.pop()
			if t[3] != merge {
				node.Else = &ir.Block{}
				d.push(node.Else)
				if err := d.region(t[3], merge); err != nil {
					return err
				}
				d.pop()
			}
			bid = merge
		default:
			return fmt.Errorf("spirvgen: unexpected terminator opcode %d", t[0]&0xffff)
		}
	}
}

// loop decodes a structured loop rooted at a header block carrying
// OpLoopMerge, returning the merge block id. LoopControl None marks the
// canonical counted shape; MaxIterations marks a while-loop.
func (d *decoder) loop(headerID uint32) (uint32, error) {
	hdr := d.blocks[headerID]
	mw := hdr.merge
	merge, cont, control := mw[1], mw[2], mw[3]
	if hdr.term[0]&0xffff != opBranch {
		return 0, fmt.Errorf("spirvgen: loop header must end in OpBranch")
	}
	chk := d.blocks[hdr.term[1]]
	if chk == nil {
		return 0, fmt.Errorf("spirvgen: loop check block missing")
	}
	if chk.term[0]&0xffff != opBranchConditional || chk.term[3] != merge {
		return 0, fmt.Errorf("spirvgen: loop check block has unexpected terminator")
	}
	bodyID := chk.term[2]
	contBlk := d.blocks[cont]
	if contBlk == nil || contBlk.term[0]&0xffff != opBranch || contBlk.term[1] != headerID {
		return 0, fmt.Errorf("spirvgen: loop continue block must branch to header")
	}

	if control&loopControlMaxIterations != 0 {
		if len(mw) < 5 {
			return 0, fmt.Errorf("spirvgen: MaxIterations literal missing")
		}
		w := &ir.While{Cond: &ir.Block{}, Body: &ir.Block{}, MaxIter: int(mw[4])}
		d.cur().b.Append(w)
		d.push(w.Cond)
		for _, iw := range chk.instrs {
			if err := d.instr(iw); err != nil {
				return 0, err
			}
		}
		cv, err := d.resolve(chk.term[1])
		if err != nil {
			return 0, err
		}
		w.CondVal = cv
		d.pop()
		if len(contBlk.instrs) != 0 {
			return 0, fmt.Errorf("spirvgen: while continue block must be empty")
		}
		d.push(w.Body)
		if err := d.region(bodyID, cont); err != nil {
			return 0, err
		}
		d.pop()
		return merge, nil
	}

	// Counted loop: retract the init store from the parent block, then
	// recover End from the check block and Step from the continue block.
	cb := d.cur().b
	n := len(cb.Items)
	if n == 0 {
		return 0, fmt.Errorf("spirvgen: counted loop without init store")
	}
	store, ok := cb.Items[n-1].(*ir.Instr)
	if !ok || store.Op != ir.OpStore {
		return 0, fmt.Errorf("spirvgen: counted loop not preceded by counter store")
	}
	cb.Items = cb.Items[:n-1]
	ctr := store.Var

	if len(chk.instrs) != 2 {
		return 0, fmt.Errorf("spirvgen: counted loop check block has %d instructions, want 2", len(chk.instrs))
	}
	ldW, cmpW := chk.instrs[0], chk.instrs[1]
	if ldW[0]&0xffff != opLoad || len(ldW) < 4 || d.vars[ldW[3]] != ctr {
		return 0, fmt.Errorf("spirvgen: counted loop check does not load the counter")
	}
	if cmpW[0]&0xffff != opSLessThan || len(cmpW) < 5 || cmpW[3] != ldW[2] {
		return 0, fmt.Errorf("spirvgen: counted loop check is not counter < end")
	}
	end, err := d.resolve(cmpW[4])
	if err != nil {
		return 0, err
	}
	if len(contBlk.instrs) != 3 {
		return 0, fmt.Errorf("spirvgen: counted loop continue block has %d instructions, want 3", len(contBlk.instrs))
	}
	incW := contBlk.instrs[1]
	if incW[0]&0xffff != opIAdd || len(incW) < 5 {
		return 0, fmt.Errorf("spirvgen: counted loop increment is not OpIAdd")
	}
	step, err := d.resolve(incW[4])
	if err != nil {
		return 0, err
	}
	loop := &ir.Loop{Counter: ctr, Start: store.Args[0], End: end, Step: step, Body: &ir.Block{}}
	cb.Append(loop)
	d.push(loop.Body)
	if err := d.region(bodyID, cont); err != nil {
		return 0, err
	}
	d.pop()
	return merge, nil
}

// binDecode maps arithmetic/comparison opcodes back to IR binary
// operators. ^^ decodes as != (the same function on booleans).
var binDecode = map[uint32]string{
	opIAdd: "+", opFAdd: "+", opISub: "-", opFSub: "-",
	opIMul: "*", opFMul: "*", opSDiv: "/", opFDiv: "/", opSRem: "%",
	opVectorTimesScalar: "*", opMatrixTimesScalar: "*",
	opVectorTimesMatrix: "*", opMatrixTimesVector: "*", opMatrixTimesMatrix: "*",
	opIEqual: "==", opINotEqual: "!=",
	opSGreaterThan: ">", opSGreaterThanEqual: ">=",
	opSLessThan: "<", opSLessThanEqual: "<=",
	opFOrdEqual: "==", opFUnordNotEqual: "!=",
	opFOrdLessThan: "<", opFOrdGreaterThan: ">",
	opFOrdLessThanEqual: "<=", opFOrdGreaterThanEqual: ">=",
	opLogicalEqual: "==", opLogicalNotEqual: "!=",
	opLogicalOr: "||", opLogicalAnd: "&&",
}

// coreCalls maps single-opcode builtins back to their callee names.
var coreCalls = map[uint32]string{
	opFMod: "mod", opDot: "dot", opDPdx: "dFdx", opDPdy: "dFdy", opFwidth: "fwidth",
}

func (d *decoder) instr(w []uint32) error {
	opc := w[0] & 0xffff
	need := func(n int) error {
		if len(w) < n {
			return fmt.Errorf("spirvgen: opcode %d: want %d words, got %d", opc, n, len(w))
		}
		return nil
	}
	rt := func() (sem.Type, error) {
		t, ok := d.types[w[1]]
		if !ok {
			return sem.Void, fmt.Errorf("spirvgen: opcode %d references unknown type %d", opc, w[1])
		}
		return t, nil
	}
	// emitCall builds an OpCall instruction from resolved argument ids.
	emitCall := func(callee string, t sem.Type, args ...*ir.Instr) *ir.Instr {
		in := d.p.NewInstr(ir.OpCall, t, args...)
		in.Callee = callee
		return in
	}
	record := func(in *ir.Instr) {
		d.cur().b.Append(in)
		d.vals[w[2]] = in
	}

	if s, ok := binDecode[opc]; ok {
		if err := need(5); err != nil {
			return err
		}
		t, err := rt()
		if err != nil {
			return err
		}
		a, err := d.resolve(w[3])
		if err != nil {
			return err
		}
		b, err := d.resolve(w[4])
		if err != nil {
			return err
		}
		in := d.p.NewInstr(ir.OpBin, t, a, b)
		in.BinOp = s
		record(in)
		return nil
	}
	if callee, ok := coreCalls[opc]; ok {
		if err := need(4); err != nil {
			return err
		}
		t, err := rt()
		if err != nil {
			return err
		}
		args := make([]*ir.Instr, 0, len(w)-3)
		for _, aid := range w[3:] {
			a, err := d.resolve(aid)
			if err != nil {
				return err
			}
			args = append(args, a)
		}
		record(emitCall(callee, t, args...))
		return nil
	}

	switch opc {
	case opVariable:
		if err := need(4); err != nil {
			return err
		}
		pi, ok := d.ptrs[w[1]]
		if !ok || w[3] != storageFunction {
			return fmt.Errorf("spirvgen: function-scope variable with bad pointer/storage")
		}
		d.vars[w[2]] = d.p.AddVar(d.name(w[2], "v"), pi.t)
	case opLoad:
		if err := need(4); err != nil {
			return err
		}
		t, err := rt()
		if err != nil {
			return err
		}
		if gi, ok := d.globals[w[3]]; ok {
			in := d.p.NewInstr(gi.op, t)
			in.Global = gi.g
			record(in)
			return nil
		}
		v, ok := d.vars[w[3]]
		if !ok {
			return fmt.Errorf("spirvgen: load from unknown pointer %d", w[3])
		}
		in := d.p.NewInstr(ir.OpLoad, t)
		in.Var = v
		record(in)
	case opStore:
		if err := need(3); err != nil {
			return err
		}
		v, ok := d.vars[w[1]]
		if !ok {
			return fmt.Errorf("spirvgen: store to unknown pointer %d", w[1])
		}
		val, err := d.resolve(w[2])
		if err != nil {
			return err
		}
		in := d.p.NewInstr(ir.OpStore, sem.Void, val)
		in.Var = v
		d.cur().b.Append(in)
	case opSNegate, opFNegate, opLogicalNot:
		if err := need(4); err != nil {
			return err
		}
		t, err := rt()
		if err != nil {
			return err
		}
		a, err := d.resolve(w[3])
		if err != nil {
			return err
		}
		in := d.p.NewInstr(ir.OpUn, t, a)
		if opc == opLogicalNot {
			in.UnOp = "!"
		} else {
			in.UnOp = "-"
		}
		record(in)
	case opExtInst:
		if err := need(6); err != nil {
			return err
		}
		t, err := rt()
		if err != nil {
			return err
		}
		if w[3] != d.extSet {
			return fmt.Errorf("spirvgen: OpExtInst from unknown instruction set")
		}
		callee, ok := extInstNames[w[4]]
		if !ok {
			return fmt.Errorf("spirvgen: unknown GLSL.std.450 instruction %d", w[4])
		}
		args := make([]*ir.Instr, 0, len(w)-5)
		for _, aid := range w[5:] {
			a, err := d.resolve(aid)
			if err != nil {
				return err
			}
			args = append(args, a)
		}
		record(emitCall(callee, t, args...))
	case opCompositeConstruct:
		if err := need(3); err != nil {
			return err
		}
		t, err := rt()
		if err != nil {
			return err
		}
		args := make([]*ir.Instr, 0, len(w)-3)
		for _, aid := range w[3:] {
			a, err := d.resolve(aid)
			if err != nil {
				return err
			}
			args = append(args, a)
		}
		record(d.p.NewInstr(ir.OpConstruct, t, args...))
	case opCompositeExtract:
		if err := need(5); err != nil {
			return err
		}
		if len(w) > 5 {
			return fmt.Errorf("spirvgen: multi-index OpCompositeExtract not supported")
		}
		t, err := rt()
		if err != nil {
			return err
		}
		a, err := d.resolve(w[3])
		if err != nil {
			return err
		}
		in := d.p.NewInstr(ir.OpExtract, t, a)
		in.Index = int(w[4])
		record(in)
	case opCompositeInsert:
		if err := need(6); err != nil {
			return err
		}
		t, err := rt()
		if err != nil {
			return err
		}
		obj, err := d.resolve(w[3])
		if err != nil {
			return err
		}
		agg, err := d.resolve(w[4])
		if err != nil {
			return err
		}
		in := d.p.NewInstr(ir.OpInsert, t, agg, obj)
		in.Index = int(w[5])
		record(in)
	case opVectorShuffle:
		if err := need(6); err != nil {
			return err
		}
		if w[3] != w[4] {
			return fmt.Errorf("spirvgen: OpVectorShuffle of two distinct vectors not supported")
		}
		t, err := rt()
		if err != nil {
			return err
		}
		a, err := d.resolve(w[3])
		if err != nil {
			return err
		}
		in := d.p.NewInstr(ir.OpSwizzle, t, a)
		for _, ix := range w[5:] {
			in.Indices = append(in.Indices, int(ix))
		}
		record(in)
	case opVectorExtractDyn:
		if err := need(5); err != nil {
			return err
		}
		t, err := rt()
		if err != nil {
			return err
		}
		agg, err := d.resolve(w[3])
		if err != nil {
			return err
		}
		idx, err := d.resolve(w[4])
		if err != nil {
			return err
		}
		record(d.p.NewInstr(ir.OpExtractDyn, t, agg, idx))
	case opVectorInsertDyn:
		if err := need(6); err != nil {
			return err
		}
		t, err := rt()
		if err != nil {
			return err
		}
		agg, err := d.resolve(w[3])
		if err != nil {
			return err
		}
		comp, err := d.resolve(w[4])
		if err != nil {
			return err
		}
		idx, err := d.resolve(w[5])
		if err != nil {
			return err
		}
		record(d.p.NewInstr(ir.OpInsertDyn, t, agg, idx, comp))
	case opSelect:
		if err := need(6); err != nil {
			return err
		}
		t, err := rt()
		if err != nil {
			return err
		}
		cond, err := d.resolve(w[3])
		if err != nil {
			return err
		}
		a, err := d.resolve(w[4])
		if err != nil {
			return err
		}
		b, err := d.resolve(w[5])
		if err != nil {
			return err
		}
		record(d.p.NewInstr(ir.OpSelect, t, cond, a, b))
	case opImage:
		if err := need(4); err != nil {
			return err
		}
		samp, ok := d.vals[w[3]]
		if !ok {
			return fmt.Errorf("spirvgen: OpImage of unknown sampled image %d", w[3])
		}
		d.images[w[2]] = samp
	case opImageSampleImplicitLod, opImageSampleExplicitLod:
		if err := need(5); err != nil {
			return err
		}
		t, err := rt()
		if err != nil {
			return err
		}
		samp, ok := d.vals[w[3]]
		if !ok {
			return fmt.Errorf("spirvgen: sample from unknown sampled image %d", w[3])
		}
		coord, err := d.resolve(w[4])
		if err != nil {
			return err
		}
		if opc == opImageSampleExplicitLod {
			if len(w) < 7 || w[5] != imageOperandLod {
				return fmt.Errorf("spirvgen: explicit-lod sample without Lod operand")
			}
			lod, err := d.resolve(w[6])
			if err != nil {
				return err
			}
			record(emitCall("textureLod", t, samp, coord, lod))
			return nil
		}
		if len(w) >= 7 && w[5] == imageOperandBias {
			bias, err := d.resolve(w[6])
			if err != nil {
				return err
			}
			record(emitCall("texture", t, samp, coord, bias))
			return nil
		}
		record(emitCall("texture", t, samp, coord))
	case opImageFetch:
		if err := need(7); err != nil {
			return err
		}
		t, err := rt()
		if err != nil {
			return err
		}
		samp, ok := d.images[w[3]]
		if !ok {
			return fmt.Errorf("spirvgen: fetch from unknown image %d", w[3])
		}
		coord, err := d.resolve(w[4])
		if err != nil {
			return err
		}
		if w[5] != imageOperandLod {
			return fmt.Errorf("spirvgen: OpImageFetch without Lod operand")
		}
		lod, err := d.resolve(w[6])
		if err != nil {
			return err
		}
		// The subset's texelFetch takes lod at coordinate width; rebuild
		// the splat the emitter collapsed to a scalar.
		lodArg := lod
		if n := coord.Type.Vec; n > 1 {
			parts := make([]*ir.Instr, n)
			for i := range parts {
				parts[i] = lod
			}
			lodArg = d.p.NewInstr(ir.OpConstruct, sem.VecType(sem.KindInt, n), parts...)
			d.cur().b.Append(lodArg)
		}
		record(emitCall("texelFetch", t, samp, coord, lodArg))
	default:
		return fmt.Errorf("spirvgen: unsupported function-body opcode %d", opc)
	}
	return nil
}
