// Package lower translates checked GLSL ASTs into the optimizer IR. It
// reproduces LunarGlass's lowering behaviour, including the paper's §III-C
// source-to-source artefacts:
//
//   - user functions are fully inlined (the LLVM-based middle end has a
//     single flat main)
//   - matrix arithmetic is scalarized into per-component operations
//     (artefact a: "tens of lines worth of scalarized calculations")
//   - scalar operands of vector operations are splatted into vectors first
//     (artefact b: "unnecessary vectorization")
//
// Locals live in mutable Var slots with explicit Load/Store; the always-on
// canonicalization passes forward and eliminate the redundant traffic.
package lower

import (
	"fmt"

	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// maxInlineDepth bounds function inlining (GLSL forbids recursion, but the
// lowering must not crash on malformed input).
const maxInlineDepth = 64

// whileGuard caps interpreted iterations of general loops.
const whileGuard = 4096

// MaxInstrs bounds the instructions one lowering emits, at 33 times the
// largest corpus lowering (megapost/s80, 1937). Full inlining doubles a
// body per call level, so a short source can ask for exponentially many;
// past the budget Lower returns an error instead of exhausting time and
// memory.
const MaxInstrs = 1 << 16

// Lower converts a parsed shader into an IR program. The shader must pass
// semantic checking.
func Lower(sh *glsl.Shader, name string) (*ir.Program, error) {
	info, err := sem.Check(sh)
	if err != nil {
		return nil, err
	}
	lw := &lowerer{
		sh:      sh,
		info:    info,
		prog:    ir.NewProgram(name),
		globals: map[string]*binding{},
	}
	lw.prog.Version = sh.Version
	err = lw.run()
	if err == nil {
		err = lw.budget()
	}
	if err != nil {
		return nil, err
	}
	lw.prog.RenumberIDs()
	if verr := lw.prog.Verify(); verr != nil {
		return nil, fmt.Errorf("internal error: lowered IR invalid: %w", verr)
	}
	return lw.prog, nil
}

// binding resolves a name to either a mutable slot or an immutable value.
type binding struct {
	slot  *ir.Var   // mutable local/output/param
	value *ir.Instr // immutable: const globals
	glob  *ir.Global
	kind  glsl.Qualifier
}

type lowerer struct {
	sh   *glsl.Shader
	info *sem.Info
	prog *ir.Program

	block   *ir.Block             // current emission point
	globals map[string]*binding   // module-scope names
	scopes  []map[string]*binding // function-local scopes
	depth   int
	emitted int // instructions emitted, against MaxInstrs
}

func (lw *lowerer) run() error {
	lw.block = lw.prog.Body

	// Interface globals in declaration order.
	for _, g := range lw.info.GlobalOrder {
		switch g.Qual {
		case glsl.QualUniform:
			gl := lw.prog.AddUniform(g.Name, g.Type)
			lw.globals[g.Name] = &binding{glob: gl, kind: glsl.QualUniform}
		case glsl.QualIn:
			gl := lw.prog.AddInput(g.Name, g.Type)
			lw.globals[g.Name] = &binding{glob: gl, kind: glsl.QualIn}
		case glsl.QualOut:
			v := lw.prog.AddOutput(g.Name, g.Type)
			lw.globals[g.Name] = &binding{slot: v, kind: glsl.QualOut}
		case glsl.QualConst, glsl.QualNone:
			if g.Decl.Init == nil {
				// Plain global without initializer: mutable module state.
				v := lw.prog.AddVar(g.Name, g.Type)
				lw.globals[g.Name] = &binding{slot: v}
				continue
			}
			val, err := lw.expr(g.Decl.Init)
			if err != nil {
				return err
			}
			val, err = lw.coerce(val, g.Type)
			if err != nil {
				return err
			}
			lw.globals[g.Name] = &binding{value: val, kind: glsl.QualConst}
		}
	}

	mainFn := lw.info.Funcs["main"]
	lw.pushScope()
	defer lw.popScope()
	return lw.stmts(mainFn.Decl.Body.Stmts, true)
}

// --- scope helpers ---

func (lw *lowerer) pushScope() { lw.scopes = append(lw.scopes, map[string]*binding{}) }
func (lw *lowerer) popScope()  { lw.scopes = lw.scopes[:len(lw.scopes)-1] }

func (lw *lowerer) bind(name string, b *binding) { lw.scopes[len(lw.scopes)-1][name] = b }

func (lw *lowerer) lookup(name string) (*binding, bool) {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if b, ok := lw.scopes[i][name]; ok {
			return b, true
		}
	}
	b, ok := lw.globals[name]
	return b, ok
}

// --- emission helpers ---

func (lw *lowerer) emit(op ir.Op, t sem.Type, args ...*ir.Instr) *ir.Instr {
	in := lw.prog.NewInstr(op, t, args...)
	lw.block.Append(in)
	lw.emitted++
	return in
}

func (lw *lowerer) emitConst(t sem.Type, c *ir.ConstVal) *ir.Instr {
	in := lw.emit(ir.OpConst, t)
	in.Const = c
	return in
}

func (lw *lowerer) floatConst(v float64) *ir.Instr {
	return lw.emitConst(sem.Float, ir.FloatConst(v))
}

func (lw *lowerer) intConst(v int64) *ir.Instr {
	return lw.emitConst(sem.Int, ir.IntConst(v))
}

func (lw *lowerer) bin(op string, t sem.Type, x, y *ir.Instr) *ir.Instr {
	in := lw.emit(ir.OpBin, t, x, y)
	in.Sym = op
	return in
}

func (lw *lowerer) load(v *ir.Var) *ir.Instr {
	in := lw.emit(ir.OpLoad, v.Type)
	in.Var = v
	return in
}

func (lw *lowerer) store(v *ir.Var, val *ir.Instr) *ir.Instr {
	in := lw.emit(ir.OpStore, sem.Void, val)
	in.Var = v
	return in
}

func (lw *lowerer) extract(agg *ir.Instr, idx int) *ir.Instr {
	t, err := extractType(agg.Type)
	if err != nil {
		panic(err) // callers guarantee aggregate types
	}
	in := lw.emit(ir.OpExtract, t, agg)
	in.Index = idx
	return in
}

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

// splat widens a scalar to an n-wide vector via OpConstruct — the paper's
// "unnecessary vectorization" artefact, faithfully reproduced.
func (lw *lowerer) splat(s *ir.Instr, n int) *ir.Instr {
	if n == 1 {
		return s
	}
	args := make([]*ir.Instr, n)
	for i := range args {
		args[i] = s
	}
	return lw.emit(ir.OpConstruct, sem.VecType(s.Type.Kind, n), args...)
}

// coerce adapts a value to the expected type where GLSL rules allow
// (identical types only at this level; constructors handle conversions).
func (lw *lowerer) coerce(v *ir.Instr, t sem.Type) (*ir.Instr, error) {
	if v.Type.Equal(t) {
		return v, nil
	}
	return nil, fmt.Errorf("cannot coerce %s to %s", v.Type, t)
}

// --- statements ---

func (lw *lowerer) stmts(list []glsl.Stmt, topLevel bool) error {
	for i, s := range list {
		if r, ok := s.(*glsl.ReturnStmt); ok {
			if !topLevel || r.Result != nil {
				return fmt.Errorf("unsupported return placement (only trailing 'return;' in main)")
			}
			if i != len(list)-1 {
				return fmt.Errorf("early return in main is outside the supported subset")
			}
			return nil
		}
		if err := lw.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

// budget reports an error once the lowering has emitted more than
// MaxInstrs instructions. Every statement and every inlined call checks
// it, so a lowering stops within one statement's own instructions of the
// budget.
func (lw *lowerer) budget() error {
	if lw.emitted > MaxInstrs {
		return fmt.Errorf("lowering exceeds the budget of %d instructions", MaxInstrs)
	}
	return nil
}

func (lw *lowerer) stmt(s glsl.Stmt) error {
	if err := lw.budget(); err != nil {
		return err
	}
	switch s := s.(type) {
	case *glsl.BlockStmt:
		lw.pushScope()
		defer lw.popScope()
		return lw.stmts(s.Stmts, false)
	case *glsl.DeclStmt:
		return lw.declStmt(s)
	case *glsl.AssignStmt:
		return lw.assign(s)
	case *glsl.IfStmt:
		return lw.ifStmt(s)
	case *glsl.ForStmt:
		return lw.forStmt(s)
	case *glsl.WhileStmt:
		return lw.whileStmt(s)
	case *glsl.DiscardStmt:
		lw.emit(ir.OpDiscard, sem.Void)
		return nil
	case *glsl.ExprStmt:
		_, err := lw.expr(s.X)
		return err
	case *glsl.ReturnStmt:
		return fmt.Errorf("unsupported return placement")
	case *glsl.BreakStmt, *glsl.ContinueStmt:
		return fmt.Errorf("break/continue are outside the supported subset")
	}
	return fmt.Errorf("unknown statement %T", s)
}

func (lw *lowerer) declStmt(s *glsl.DeclStmt) error {
	t, err := declType(s.Type, s.Init, lw.info)
	if err != nil {
		return err
	}
	v := lw.prog.AddVar(s.Name, t)
	lw.bind(s.Name, &binding{slot: v})
	if s.Init != nil {
		val, err := lw.expr(s.Init)
		if err != nil {
			return err
		}
		val, err = lw.coerce(val, t)
		if err != nil {
			return err
		}
		lw.store(v, val)
	}
	return nil
}

func declType(spec glsl.TypeSpec, init glsl.Expr, info *sem.Info) (sem.Type, error) {
	t, err := sem.FromSpec(spec)
	if err == nil {
		return t, nil
	}
	if spec.IsArray() && spec.ArrayLen == 0 && init != nil {
		if it, ok := info.ExprTypes[init]; ok {
			return it, nil
		}
	}
	return sem.Void, err
}

func (lw *lowerer) assign(s *glsl.AssignStmt) error {
	rhs, err := lw.expr(s.RHS)
	if err != nil {
		return err
	}
	if s.Op != "=" {
		cur, err := lw.lvalueLoad(s.LHS)
		if err != nil {
			return err
		}
		op := string(s.Op[0])
		rhs, err = lw.binop(op, cur, rhs, lw.info.TypeOf(s.LHS))
		if err != nil {
			return err
		}
	}
	return lw.lvalueStore(s.LHS, rhs)
}

// lvalueLoad evaluates the current value of an assignable expression.
func (lw *lowerer) lvalueLoad(e glsl.Expr) (*ir.Instr, error) {
	return lw.expr(e)
}

// lvalueStore writes val to the lvalue expression, building the
// read-modify-write chains for component stores.
func (lw *lowerer) lvalueStore(e glsl.Expr, val *ir.Instr) error {
	switch e := e.(type) {
	case *glsl.IdentExpr:
		b, ok := lw.lookup(e.Name)
		if !ok || b.slot == nil {
			return fmt.Errorf("%s: cannot assign to %q", e.Pos, e.Name)
		}
		val, err := lw.coerce(val, b.slot.Type)
		if err != nil {
			return err
		}
		lw.store(b.slot, val)
		return nil
	case *glsl.FieldExpr:
		// Swizzle store: read aggregate, insert components, write back.
		agg, err := lw.expr(e.X)
		if err != nil {
			return err
		}
		idx, err := sem.SwizzleIndices(e.Name, agg.Type.Vec)
		if err != nil {
			return fmt.Errorf("%s: %v", e.Pos, err)
		}
		cur := agg
		for i, comp := range idx {
			var elem *ir.Instr
			if len(idx) == 1 {
				elem = val
			} else {
				elem = lw.extract(val, i)
			}
			ins := lw.emit(ir.OpInsert, cur.Type, cur, elem)
			ins.Index = comp
			cur = ins
		}
		return lw.lvalueStore(e.X, cur)
	case *glsl.IndexExpr:
		agg, err := lw.expr(e.X)
		if err != nil {
			return err
		}
		idxVal, err := lw.expr(e.Index)
		if err != nil {
			return err
		}
		var cur *ir.Instr
		if idxVal.Op == ir.OpConst {
			ins := lw.emit(ir.OpInsert, agg.Type, agg, val)
			ins.Index = int(idxVal.Const.Int(0))
			cur = ins
		} else {
			cur = lw.emit(ir.OpInsertDyn, agg.Type, agg, idxVal, val)
		}
		return lw.lvalueStore(e.X, cur)
	}
	return fmt.Errorf("%s: expression is not assignable", e.Position())
}

func (lw *lowerer) ifStmt(s *glsl.IfStmt) error {
	cond, err := lw.expr(s.Cond)
	if err != nil {
		return err
	}
	thenBlk := &ir.Block{}
	saved := lw.block
	lw.block = thenBlk
	lw.pushScope()
	err = lw.stmts(s.Then.Stmts, false)
	lw.popScope()
	lw.block = saved
	if err != nil {
		return err
	}
	var elseBlk *ir.Block
	if s.Else != nil {
		elseBlk = &ir.Block{}
		lw.block = elseBlk
		lw.pushScope()
		switch els := s.Else.(type) {
		case *glsl.BlockStmt:
			err = lw.stmts(els.Stmts, false)
		case *glsl.IfStmt:
			err = lw.ifStmt(els)
		}
		lw.popScope()
		lw.block = saved
		if err != nil {
			return err
		}
	}
	lw.block.Append(&ir.If{Cond: cond, Then: thenBlk, Else: elseBlk})
	return nil
}

// forStmt lowers canonical counted loops to ir.Loop; anything else becomes
// an ir.While.
func (lw *lowerer) forStmt(s *glsl.ForStmt) error {
	lw.pushScope()
	defer lw.popScope()

	if l, ok, err := lw.tryCountedLoop(s); err != nil {
		return err
	} else if ok {
		lw.block.Append(l)
		return nil
	}

	// General form: init; while(cond) { body; post }
	if s.Init != nil {
		if err := lw.stmt(s.Init); err != nil {
			return err
		}
	}
	condBlk := &ir.Block{}
	saved := lw.block
	lw.block = condBlk
	var condVal *ir.Instr
	var err error
	if s.Cond != nil {
		condVal, err = lw.expr(s.Cond)
	} else {
		condVal = lw.emitConst(sem.Bool, ir.BoolConst(true))
	}
	lw.block = saved
	if err != nil {
		return err
	}
	bodyBlk := &ir.Block{}
	lw.block = bodyBlk
	lw.pushScope()
	err = lw.stmts(s.Body.Stmts, false)
	if err == nil && s.Post != nil {
		err = lw.stmt(s.Post)
	}
	lw.popScope()
	lw.block = saved
	if err != nil {
		return err
	}
	lw.block.Append(&ir.While{Cond: condBlk, CondVal: condVal, Body: bodyBlk, MaxIter: whileGuard})
	return nil
}

// tryCountedLoop matches "for (int i = start; i < end; i += step)" with an
// int counter not reassigned in the body.
func (lw *lowerer) tryCountedLoop(s *glsl.ForStmt) (*ir.Loop, bool, error) {
	decl, ok := s.Init.(*glsl.DeclStmt)
	if !ok || decl.Type.Name != "int" || decl.Type.IsArray() || decl.Init == nil {
		return nil, false, nil
	}
	cond, ok := s.Cond.(*glsl.BinaryExpr)
	if !ok {
		return nil, false, nil
	}
	condIdent, ok := cond.X.(*glsl.IdentExpr)
	if !ok || condIdent.Name != decl.Name {
		return nil, false, nil
	}
	if cond.Op != "<" && cond.Op != "<=" {
		return nil, false, nil
	}
	post, ok := s.Post.(*glsl.AssignStmt)
	if !ok || post.Op != "+=" {
		return nil, false, nil
	}
	postIdent, ok := post.LHS.(*glsl.IdentExpr)
	if !ok || postIdent.Name != decl.Name {
		return nil, false, nil
	}
	if counterAssigned(s.Body, decl.Name) {
		return nil, false, nil
	}

	start, err := lw.expr(decl.Init)
	if err != nil {
		return nil, false, err
	}
	end, err := lw.expr(cond.Y)
	if err != nil {
		return nil, false, err
	}
	if cond.Op == "<=" {
		one := lw.intConst(1)
		end = lw.bin("+", sem.Int, end, one)
	}
	step, err := lw.expr(post.RHS)
	if err != nil {
		return nil, false, err
	}

	counter := lw.prog.AddVar(decl.Name, sem.Int)
	lw.bind(decl.Name, &binding{slot: counter})

	body := &ir.Block{}
	saved := lw.block
	lw.block = body
	lw.pushScope()
	err = lw.stmts(s.Body.Stmts, false)
	lw.popScope()
	lw.block = saved
	if err != nil {
		return nil, false, err
	}
	return &ir.Loop{Counter: counter, Start: start, End: end, Step: step, Body: body}, true, nil
}

// counterAssigned reports whether name is written inside the block.
func counterAssigned(b *glsl.BlockStmt, name string) bool {
	found := false
	var walkStmt func(glsl.Stmt)
	walkStmt = func(s glsl.Stmt) {
		switch s := s.(type) {
		case *glsl.BlockStmt:
			for _, st := range s.Stmts {
				walkStmt(st)
			}
		case *glsl.AssignStmt:
			if id, ok := s.LHS.(*glsl.IdentExpr); ok && id.Name == name {
				found = true
			}
		case *glsl.IfStmt:
			walkStmt(s.Then)
			if s.Else != nil {
				walkStmt(s.Else)
			}
		case *glsl.ForStmt:
			if s.Init != nil {
				walkStmt(s.Init)
			}
			if s.Post != nil {
				walkStmt(s.Post)
			}
			walkStmt(s.Body)
		case *glsl.WhileStmt:
			walkStmt(s.Body)
		case *glsl.DeclStmt:
			if s.Name == name {
				found = true // shadowing: be conservative
			}
		}
	}
	walkStmt(b)
	return found
}

func (lw *lowerer) whileStmt(s *glsl.WhileStmt) error {
	condBlk := &ir.Block{}
	saved := lw.block
	lw.block = condBlk
	condVal, err := lw.expr(s.Cond)
	lw.block = saved
	if err != nil {
		return err
	}
	bodyBlk := &ir.Block{}
	lw.block = bodyBlk
	lw.pushScope()
	err = lw.stmts(s.Body.Stmts, false)
	lw.popScope()
	lw.block = saved
	if err != nil {
		return err
	}
	lw.block.Append(&ir.While{Cond: condBlk, CondVal: condVal, Body: bodyBlk, MaxIter: whileGuard})
	return nil
}
