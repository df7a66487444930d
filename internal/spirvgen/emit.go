package spirvgen

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// EntryName is the OpEntryPoint name of the emitted fragment function.
const EntryName = "main0"

// Emit serializes a program to a SPIR-V word stream.
func Emit(p *ir.Program) ([]uint32, error) {
	e := &emitter{
		p:       p,
		next:    1,
		types:   map[typeKey]uint32{},
		images:  map[sem.Dim]uint32{},
		scalars: map[scalarKey]uint32{},
		consts:  map[string]uint32{},
		ptrs:    map[ptrKey]uint32{},
		instrID: make([]emitted, p.MaxID()+1),
		globVar: make(map[*ir.Global]uint32, len(p.Uniforms)+len(p.Inputs)),
		varVar:  make(map[*ir.Var]uint32, len(p.Vars)),
	}
	return e.run()
}

// EmitBytes serializes a program to little-endian SPIR-V bytes.
func EmitBytes(p *ir.Program) ([]byte, error) {
	words, err := Emit(p)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 4*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out, nil
}

type emitter struct {
	p    *ir.Program
	next uint32

	// Sections, assembled in spec order at the end.
	debug []uint32 // OpSource, OpName
	decos []uint32 // OpDecorate
	tc    []uint32 // types, constants, module-scope variables
	fn    []uint32 // the single function

	types   map[typeKey]uint32
	images  map[sem.Dim]uint32 // sampler dim → bare image type id
	scalars map[scalarKey]uint32
	consts  map[string]uint32 // appendKey of the type, then the payload → id
	ptrs    map[ptrKey]uint32
	keyBuf  []byte    // reused to build consts keys
	instrID []emitted // by instruction ID: a program's are distinct, in 1..MaxID
	globVar map[*ir.Global]uint32
	varVar  map[*ir.Var]uint32

	extSet uint32 // OpExtInstImport result
	err    error
}

// emitted is an instrID entry: the id of in's value.
type emitted struct {
	in *ir.Instr
	id uint32
}

// valueID returns the id recorded for in's value, if any.
func (e *emitter) valueID(in *ir.Instr) (uint32, bool) {
	if uint(in.ID) < uint(len(e.instrID)) && e.instrID[in.ID].in == in {
		return e.instrID[in.ID].id, true
	}
	return 0, false
}

// setValueID records id as in's value. An instruction outside 1..MaxID
// fails the emit.
func (e *emitter) setValueID(in *ir.Instr, id uint32) {
	if uint(in.ID) >= uint(len(e.instrID)) {
		e.fail("instruction %%%d outside 1..%d", in.ID, len(e.instrID)-1)
		return
	}
	e.instrID[in.ID] = emitted{in, id}
}

func (e *emitter) id() uint32 {
	id := e.next
	e.next++
	return id
}

// op appends one instruction to a section.
func op(sec *[]uint32, opcode uint32, operands ...uint32) {
	*sec = append(*sec, uint32(len(operands)+1)<<16|opcode)
	*sec = append(*sec, operands...)
}

func (e *emitter) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("spirvgen: "+format, args...)
	}
}

func (e *emitter) run() ([]uint32, error) {
	e.extSet = e.id()
	mainID := e.id()

	// Debug info: source language and version.
	lang, ver := uint32(sourceLangGLSL), uint32(330)
	if v := strings.TrimSpace(e.p.Version); v != "" {
		if n, err := strconv.Atoi(strings.Fields(v)[0]); err == nil {
			ver = uint32(n)
		}
		if strings.HasSuffix(v, "es") {
			lang = sourceLangESSL
		}
	}
	op(&e.debug, opSource, lang, ver)

	// Interface globals. Value uniforms and samplers are UniformConstant
	// (legacy default-block uniforms, ARB_gl_spirv style); inputs and
	// outputs carry Location decorations and join the entry interface.
	var iface []uint32
	samplerSlot := uint32(0)
	for i, g := range e.p.Uniforms {
		vid := e.moduleVar(g.Type, storageUniformConstant, g.Name)
		e.globVar[g] = vid
		if g.Type.IsSampler() {
			op(&e.decos, opDecorate, vid, decorationBinding, samplerSlot)
			op(&e.decos, opDecorate, vid, decorationDescriptorSet, 0)
			samplerSlot++
		} else {
			op(&e.decos, opDecorate, vid, decorationLocation, uint32(i))
		}
	}
	for i, g := range e.p.Inputs {
		vid := e.moduleVar(g.Type, storageInput, g.Name)
		e.globVar[g] = vid
		op(&e.decos, opDecorate, vid, decorationLocation, uint32(i))
		iface = append(iface, vid)
	}
	outIdx := 0
	for _, v := range e.p.Vars {
		if !v.IsOutput {
			continue
		}
		vid := e.moduleVar(v.Type, storageOutput, v.Name)
		e.varVar[v] = vid
		op(&e.decos, opDecorate, vid, decorationLocation, uint32(outIdx))
		iface = append(iface, vid)
		outIdx++
	}

	// Function skeleton: void main0() with locals hoisted into the entry
	// block, per the SPIR-V block rules.
	voidT := e.typeID(sem.Void)
	fnT := e.id()
	op(&e.tc, opTypeFunction, fnT, voidT)
	op(&e.fn, opFunction, voidT, mainID, 0, fnT)
	op(&e.fn, opLabel, e.id())
	for _, v := range e.p.Vars {
		if v.IsOutput {
			continue
		}
		ptr := e.ptrID(storageFunction, v.Type)
		vid := e.id()
		op(&e.fn, opVariable, ptr, vid, storageFunction)
		op(&e.debug, opName, append([]uint32{vid}, encodeString(v.Name)...)...)
		e.varVar[v] = vid
	}
	e.block(e.p.Body)
	op(&e.fn, opReturn)
	op(&e.fn, opFunctionEnd)
	if e.err != nil {
		return nil, e.err
	}

	// Assemble: header, capabilities, imports, memory model, entry point,
	// execution modes, debug, decorations, types/constants/variables,
	// functions.
	var w []uint32
	w = append(w, Magic, Version, Generator, 0 /* bound, patched below */, 0)
	op(&w, opCapability, capShader)
	op(&w, opCapability, capFloat64)
	op(&w, opCapability, capInt64)
	op(&w, opExtInstImport, append([]uint32{e.extSet}, encodeString(glslStd450)...)...)
	op(&w, opMemoryModel, addressingLogical, memoryGLSL450)
	entry := append([]uint32{execModelFragment, mainID}, encodeString(EntryName)...)
	op(&w, opEntryPoint, append(entry, iface...)...)
	op(&w, opExecutionMode, mainID, execModeOriginUpperLeft)
	w = append(w, e.debug...)
	w = append(w, e.decos...)
	w = append(w, e.tc...)
	w = append(w, e.fn...)
	w[3] = e.next
	return w, nil
}

// moduleVar declares a module-scope variable with a debug name.
func (e *emitter) moduleVar(t sem.Type, storage uint32, name string) uint32 {
	ptr := e.ptrID(storage, t)
	vid := e.id()
	op(&e.tc, opVariable, ptr, vid, storage)
	op(&e.debug, opName, append([]uint32{vid}, encodeString(name)...)...)
	return vid
}

// typeID interns a type, emitting its declaration on first use. Samplers
// resolve to the OpTypeSampledImage id; the bare image type is kept for
// OpImage/OpImageFetch.
func (e *emitter) typeID(t sem.Type) uint32 {
	key := keyOf(t)
	if id, ok := e.types[key]; ok {
		return id
	}
	var id uint32
	switch {
	case t.IsArray():
		elem := t
		elem.ArrayLen = 0
		elemID := e.typeID(elem)
		lenID := e.intConst(int64(t.ArrayLen))
		id = e.id()
		op(&e.tc, opTypeArray, id, elemID, lenID)
	case t.IsSampler():
		dim, depth, arrayed, err := dimOf(t.Dim)
		if err != nil {
			e.fail("%v", err)
		}
		sampled := e.typeID(sem.Float)
		img := e.id()
		op(&e.tc, opTypeImage, img, sampled, dim, depth, arrayed, 0 /* ms */, 1 /* sampled */, 0 /* format */)
		e.images[t.Dim] = img
		id = e.id()
		op(&e.tc, opTypeSampledImage, id, img)
	case t.IsMatrix():
		col := e.typeID(sem.VecType(sem.KindFloat, t.Vec))
		id = e.id()
		op(&e.tc, opTypeMatrix, id, col, uint32(t.Mat))
	case t.Vec > 1:
		comp := e.typeID(sem.VecType(t.Kind, 1))
		id = e.id()
		op(&e.tc, opTypeVector, id, comp, uint32(t.Vec))
	default:
		id = e.id()
		switch t.Kind {
		case sem.KindVoid:
			op(&e.tc, opTypeVoid, id)
		case sem.KindBool:
			op(&e.tc, opTypeBool, id)
		case sem.KindInt:
			op(&e.tc, opTypeInt, id, 64, 1)
		case sem.KindFloat:
			op(&e.tc, opTypeFloat, id, 64)
		default:
			e.fail("cannot emit type %s", t)
		}
	}
	e.types[key] = id
	return id
}

// ptrKey is the interning key of a pointer type.
type ptrKey struct {
	storage uint32
	t       typeKey
}

// scalarKey is the interning key of a one-component constant: its type
// and the bits of its payload (Float64bits, the int, or 0/1).
type scalarKey struct {
	t    typeKey
	kind sem.Kind
	bits uint64
}

func (e *emitter) ptrID(storage uint32, t sem.Type) uint32 {
	key := ptrKey{storage, keyOf(t)}
	if id, ok := e.ptrs[key]; ok {
		return id
	}
	tid := e.typeID(t)
	id := e.id()
	op(&e.tc, opTypePointer, id, storage, tid)
	e.ptrs[key] = id
	return id
}

// constID interns a constant of the given type, emitting scalar leaves and
// composites bottom-up. 64-bit literals are encoded low word first.
// One-component constants are keyed by a scalarKey, the others by their
// type's and payload's bytes; a lookup that hits allocates nothing.
func (e *emitter) constID(t sem.Type, c *ir.ConstVal) uint32 {
	if c.Len() == 1 {
		key := scalarKey{keyOf(t), c.Kind, constBits(c, 0)}
		if id, ok := e.scalars[key]; ok {
			return id
		}
		id := e.newConst(t, c)
		e.scalars[key] = id
		return id
	}
	e.keyBuf = keyOf(t).appendKey(e.keyBuf[:0])
	e.keyBuf = append(e.keyBuf, byte(c.Kind))
	for i := 0; i < c.Len(); i++ {
		e.keyBuf = binary.LittleEndian.AppendUint64(e.keyBuf, constBits(c, i))
	}
	if id, ok := e.consts[string(e.keyBuf)]; ok {
		return id
	}
	key := string(e.keyBuf) // newConst reuses keyBuf for the components
	id := e.newConst(t, c)
	e.consts[key] = id
	return id
}

// newConst emits the declaration of a constant constID did not find.
func (e *emitter) newConst(t sem.Type, c *ir.ConstVal) uint32 {
	var id uint32
	switch {
	case t.IsArray():
		elem := t
		elem.ArrayLen = 0
		per := elem.Components()
		ids := make([]uint32, t.ArrayLen)
		for i := range ids {
			ids[i] = e.constID(elem, sliceConst(c, i*per, per))
		}
		id = e.composite(t, ids)
	case t.IsMatrix():
		col := sem.VecType(sem.KindFloat, t.Vec)
		ids := make([]uint32, t.Mat)
		for i := range ids {
			ids[i] = e.constID(col, sliceConst(c, i*t.Vec, t.Vec))
		}
		id = e.composite(t, ids)
	case t.Vec > 1:
		comp := sem.VecType(t.Kind, 1)
		ids := make([]uint32, t.Vec)
		for i := range ids {
			ids[i] = e.constID(comp, sliceConst(c, i, 1))
		}
		id = e.composite(t, ids)
	default:
		tid := e.typeID(t)
		id = e.id()
		switch t.Kind {
		case sem.KindBool:
			if c.B[0] {
				op(&e.tc, opConstantTrue, tid, id)
			} else {
				op(&e.tc, opConstantFalse, tid, id)
			}
		case sem.KindFloat:
			bits := math.Float64bits(c.F[0])
			op(&e.tc, opConstant, tid, id, uint32(bits), uint32(bits>>32))
		case sem.KindInt:
			bits := uint64(c.I[0])
			op(&e.tc, opConstant, tid, id, uint32(bits), uint32(bits>>32))
		default:
			e.fail("cannot emit constant of type %s", t)
		}
	}
	return id
}

func (e *emitter) composite(t sem.Type, parts []uint32) uint32 {
	tid := e.typeID(t)
	id := e.id()
	op(&e.tc, opConstantComposite, append([]uint32{tid, id}, parts...)...)
	return id
}

func (e *emitter) intConst(v int64) uint32 {
	return e.constID(sem.Int, ir.IntConst(v))
}

// constBits returns component i of c as the 64 bits an interning key
// compares.
func constBits(c *ir.ConstVal, i int) uint64 {
	switch c.Kind {
	case sem.KindFloat:
		return math.Float64bits(c.F[i])
	case sem.KindInt:
		return uint64(c.I[i])
	case sem.KindBool:
		if c.B[i] {
			return 1
		}
	}
	return 0
}

// sliceConst extracts components [off, off+n) as a new ConstVal.
func sliceConst(c *ir.ConstVal, off, n int) *ir.ConstVal {
	out := &ir.ConstVal{Kind: c.Kind}
	switch c.Kind {
	case sem.KindFloat:
		out.F = c.F[off : off+n]
	case sem.KindInt:
		out.I = c.I[off : off+n]
	case sem.KindBool:
		out.B = c.B[off : off+n]
	}
	return out
}

// val returns the id of an instruction's value. Constants resolve to
// module-level constant ids.
func (e *emitter) val(in *ir.Instr) uint32 {
	if in == nil {
		e.fail("nil operand")
		return 0
	}
	if in.Op == ir.OpConst {
		if id, ok := e.valueID(in); ok {
			return id
		}
		id := e.constID(in.Type, in.Const)
		e.setValueID(in, id)
		return id
	}
	id, ok := e.valueID(in)
	if !ok {
		e.fail("operand %%%d used before definition", in.ID)
	}
	return id
}

func (e *emitter) block(b *ir.Block) {
	for _, it := range b.Items {
		if e.err != nil {
			return
		}
		switch it := it.(type) {
		case *ir.Instr:
			e.instr(it)
		case *ir.If:
			e.ifNode(it)
		case *ir.Loop:
			e.loopNode(it)
		case *ir.While:
			e.whileNode(it)
		default:
			e.fail("unknown block item %T", it)
		}
	}
}

func (e *emitter) ifNode(n *ir.If) {
	cond := e.val(n.Cond)
	thenL, merge := e.id(), e.id()
	elseL := merge
	hasElse := n.Else != nil && len(n.Else.Items) > 0
	if hasElse {
		elseL = e.id()
	}
	op(&e.fn, opSelectionMerge, merge, 0)
	op(&e.fn, opBranchConditional, cond, thenL, elseL)
	op(&e.fn, opLabel, thenL)
	e.block(n.Then)
	op(&e.fn, opBranch, merge)
	if hasElse {
		op(&e.fn, opLabel, elseL)
		e.block(n.Else)
		op(&e.fn, opBranch, merge)
	}
	op(&e.fn, opLabel, merge)
}

// loopNode emits the canonical counted-loop shape. LoopControl None marks
// it; the decoder recovers Counter/Start/End/Step from the fixed
// store/check/continue pattern.
func (e *emitter) loopNode(n *ir.Loop) {
	ctr := e.varVar[n.Counter]
	if ctr == 0 {
		e.fail("loop counter %q not declared", n.Counter.Name)
		return
	}
	intT, boolT := e.typeID(sem.Int), e.typeID(sem.Bool)
	start, end, step := e.val(n.Start), e.val(n.End), e.val(n.Step)
	header, check, body, cont, merge := e.id(), e.id(), e.id(), e.id(), e.id()

	op(&e.fn, opStore, ctr, start)
	op(&e.fn, opBranch, header)
	op(&e.fn, opLabel, header)
	op(&e.fn, opLoopMerge, merge, cont, 0)
	op(&e.fn, opBranch, check)
	op(&e.fn, opLabel, check)
	ld := e.id()
	op(&e.fn, opLoad, intT, ld, ctr)
	cmp := e.id()
	op(&e.fn, opSLessThan, boolT, cmp, ld, end)
	op(&e.fn, opBranchConditional, cmp, body, merge)
	op(&e.fn, opLabel, body)
	e.block(n.Body)
	op(&e.fn, opBranch, cont)
	op(&e.fn, opLabel, cont)
	ld2 := e.id()
	op(&e.fn, opLoad, intT, ld2, ctr)
	next := e.id()
	op(&e.fn, opIAdd, intT, next, ld2, step)
	op(&e.fn, opStore, ctr, next)
	op(&e.fn, opBranch, header)
	op(&e.fn, opLabel, merge)
}

// whileNode emits a general loop; the condition block's instructions live
// in the check block and LoopControl carries MaxIterations.
func (e *emitter) whileNode(n *ir.While) {
	for _, it := range n.Cond.Items {
		if _, ok := it.(*ir.Instr); !ok {
			e.fail("while condition contains nested control flow (%T)", it)
			return
		}
	}
	header, check, body, cont, merge := e.id(), e.id(), e.id(), e.id(), e.id()
	op(&e.fn, opBranch, header)
	op(&e.fn, opLabel, header)
	op(&e.fn, opLoopMerge, merge, cont, loopControlMaxIterations, uint32(n.MaxIter))
	op(&e.fn, opBranch, check)
	op(&e.fn, opLabel, check)
	e.block(n.Cond)
	op(&e.fn, opBranchConditional, e.val(n.CondVal), body, merge)
	op(&e.fn, opLabel, body)
	e.block(n.Body)
	op(&e.fn, opBranch, cont)
	op(&e.fn, opLabel, cont)
	op(&e.fn, opBranch, header)
	op(&e.fn, opLabel, merge)
}

func (e *emitter) instr(in *ir.Instr) {
	switch in.Op {
	case ir.OpConst:
		e.setValueID(in, e.constID(in.Type, in.Const))
	case ir.OpUniform, ir.OpInput:
		vid, ok := e.globVar[in.Global]
		if !ok {
			e.fail("unregistered global %q", in.Global.Name)
			return
		}
		id := e.id()
		op(&e.fn, opLoad, e.typeID(in.Type), id, vid)
		e.setValueID(in, id)
	case ir.OpLoad:
		vid, ok := e.varVar[in.Var]
		if !ok {
			e.fail("unregistered var %q", in.Var.Name)
			return
		}
		id := e.id()
		op(&e.fn, opLoad, e.typeID(in.Type), id, vid)
		e.setValueID(in, id)
	case ir.OpStore:
		vid, ok := e.varVar[in.Var]
		if !ok {
			e.fail("unregistered var %q", in.Var.Name)
			return
		}
		op(&e.fn, opStore, vid, e.val(in.Args[0]))
	case ir.OpDiscard:
		// OpKill terminates the block; resume emission in a fresh
		// (unreachable, when the discard is unconditional) label.
		op(&e.fn, opKill)
		op(&e.fn, opLabel, e.id())
	case ir.OpBin:
		e.binInstr(in)
	case ir.OpUn:
		var opcode uint32
		switch {
		case in.Sym == "!":
			opcode = opLogicalNot
		case in.Type.Kind == sem.KindInt:
			opcode = opSNegate
		default:
			opcode = opFNegate
		}
		e.simple(in, opcode, e.val(in.Args[0]))
	case ir.OpCall:
		e.callInstr(in)
	case ir.OpConstruct:
		ids := make([]uint32, len(in.Args))
		for i, a := range in.Args {
			ids[i] = e.val(a)
		}
		e.simple(in, opCompositeConstruct, ids...)
	case ir.OpExtract:
		e.simple(in, opCompositeExtract, e.val(in.Args[0]), uint32(in.Index))
	case ir.OpExtractDyn:
		e.simple(in, opVectorExtractDyn, e.val(in.Args[0]), e.val(in.Args[1]))
	case ir.OpSwizzle:
		src := e.val(in.Args[0])
		ids := []uint32{src, src}
		for _, ix := range in.Indices {
			ids = append(ids, uint32(ix))
		}
		e.simple(in, opVectorShuffle, ids...)
	case ir.OpInsert:
		// SPIR-V operand order is (Object, Composite, indices...).
		e.simple(in, opCompositeInsert, e.val(in.Args[1]), e.val(in.Args[0]), uint32(in.Index))
	case ir.OpInsertDyn:
		// SPIR-V operand order is (Vector, Component, Index).
		e.simple(in, opVectorInsertDyn, e.val(in.Args[0]), e.val(in.Args[2]), e.val(in.Args[1]))
	case ir.OpSelect:
		e.simple(in, opSelect, e.val(in.Args[0]), e.val(in.Args[1]), e.val(in.Args[2]))
	default:
		e.fail("unknown op %s", in.Op)
	}
}

// simple emits a result-producing instruction of the standard
// (result-type, result, operands...) shape.
func (e *emitter) simple(in *ir.Instr, opcode uint32, operands ...uint32) {
	id := e.id()
	op(&e.fn, opcode, append([]uint32{e.typeID(in.Type), id}, operands...)...)
	e.setValueID(in, id)
}

func (e *emitter) binInstr(in *ir.Instr) {
	x, y := in.Args[0], in.Args[1]
	a, b := e.val(x), e.val(y)
	kind := x.Type.Kind
	var opcode uint32
	switch in.Sym {
	case "+":
		opcode = pick(kind, opFAdd, opIAdd)
	case "-":
		opcode = pick(kind, opFSub, opISub)
	case "*":
		switch {
		case x.Type.IsMatrix() && y.Type.IsMatrix():
			opcode = opMatrixTimesMatrix
		case x.Type.IsMatrix() && y.Type.IsVector():
			opcode = opMatrixTimesVector
		case x.Type.IsVector() && y.Type.IsMatrix():
			opcode = opVectorTimesMatrix
		case x.Type.IsMatrix():
			opcode = opMatrixTimesScalar
		case y.Type.IsMatrix():
			// SPIR-V only has matrix×scalar; swap operands (float
			// multiplication is bitwise commutative).
			opcode, a, b = opMatrixTimesScalar, b, a
		default:
			opcode = pick(kind, opFMul, opIMul)
		}
	case "/":
		opcode = pick(kind, opFDiv, opSDiv)
	case "%":
		opcode = opSRem
	case "<":
		opcode = pick(kind, opFOrdLessThan, opSLessThan)
	case ">":
		opcode = pick(kind, opFOrdGreaterThan, opSGreaterThan)
	case "<=":
		opcode = pick(kind, opFOrdLessThanEqual, opSLessThanEqual)
	case ">=":
		opcode = pick(kind, opFOrdGreaterThanEqual, opSGreaterThanEqual)
	case "==":
		if kind == sem.KindBool {
			opcode = opLogicalEqual
		} else {
			opcode = pick(kind, opFOrdEqual, opIEqual)
		}
	case "!=":
		if kind == sem.KindBool {
			opcode = opLogicalNotEqual
		} else {
			// FUnord so that NaN != NaN holds, matching Go semantics.
			opcode = pick(kind, opFUnordNotEqual, opINotEqual)
		}
	case "&&":
		opcode = opLogicalAnd
	case "||":
		opcode = opLogicalOr
	case "^^":
		opcode = opLogicalNotEqual
	default:
		e.fail("unknown binary operator %q", in.Sym)
		return
	}
	e.simple(in, opcode, a, b)
}

func pick(k sem.Kind, fop, iop uint32) uint32 {
	if k == sem.KindInt {
		return iop
	}
	return fop
}

func (e *emitter) callInstr(in *ir.Instr) {
	callee := in.Sym
	switch callee {
	case "texture", "texture2D", "textureCube", "textureLod", "texelFetch":
		e.textureInstr(in)
		return
	case "mod":
		e.simple(in, opFMod, e.val(in.Args[0]), e.val(in.Args[1]))
		return
	case "dot":
		e.simple(in, opDot, e.val(in.Args[0]), e.val(in.Args[1]))
		return
	case "dFdx":
		e.simple(in, opDPdx, e.val(in.Args[0]))
		return
	case "dFdy":
		e.simple(in, opDPdy, e.val(in.Args[0]))
		return
	case "fwidth":
		e.simple(in, opFwidth, e.val(in.Args[0]))
		return
	case "atan":
		num := uint32(18) // Atan
		if len(in.Args) == 2 {
			num = 25 // Atan2
		}
		e.extInst(in, num)
		return
	}
	num, ok := extInstNums[callee]
	if !ok {
		e.fail("builtin %q has no SPIR-V mapping", callee)
		return
	}
	e.extInst(in, num)
}

func (e *emitter) extInst(in *ir.Instr, num uint32) {
	ids := []uint32{e.extSet, num}
	for _, a := range in.Args {
		ids = append(ids, e.val(a))
	}
	e.simple(in, opExtInst, ids...)
}

func (e *emitter) textureInstr(in *ir.Instr) {
	samp := in.Args[0]
	if samp.Op != ir.OpUniform || !samp.Type.IsSampler() {
		e.fail("texture call %%%d: first argument is not a sampler uniform", in.ID)
		return
	}
	simg := e.val(samp)
	coord := e.val(in.Args[1])
	switch in.Sym {
	case "texture", "texture2D", "textureCube":
		// texture2D/textureCube are legacy spellings of the same
		// operation; both decode back as "texture".
		if len(in.Args) == 3 {
			e.simple(in, opImageSampleImplicitLod, simg, coord, imageOperandBias, e.val(in.Args[2]))
		} else {
			e.simple(in, opImageSampleImplicitLod, simg, coord)
		}
	case "textureLod":
		e.simple(in, opImageSampleExplicitLod, simg, coord, imageOperandLod, e.val(in.Args[2]))
	case "texelFetch":
		// Fetch goes through the bare image; the subset's lod argument is
		// an int vector at coordinate width, while SPIR-V takes a scalar
		// Lod — extract component 0 (the only one evaluation consults).
		imgT, ok := e.images[samp.Type.Dim]
		if !ok {
			e.fail("image type for %q not interned", samp.Type.Dim)
			return
		}
		img := e.id()
		op(&e.fn, opImage, imgT, img, simg)
		lodArg := in.Args[2]
		var lod uint32
		if lodArg.Type.IsVector() {
			lod = e.id()
			op(&e.fn, opCompositeExtract, e.typeID(sem.Int), lod, e.val(lodArg), 0)
		} else {
			lod = e.val(lodArg)
		}
		e.simple(in, opImageFetch, img, coord, imageOperandLod, lod)
	}
}
