package sem

import (
	"fmt"

	"shaderopt/internal/glsl"
	"shaderopt/internal/scope"
)

// VarInfo describes a global variable after checking.
type VarInfo struct {
	Name string
	Type Type
	Qual glsl.Qualifier
	Decl *glsl.GlobalVar
}

// FuncInfo describes a checked function.
type FuncInfo struct {
	Name   string
	Return Type
	Params []Type
	Decl   *glsl.FuncDecl
}

// Info is the result of semantic analysis.
type Info struct {
	// ExprTypes records the type of every expression node.
	ExprTypes map[glsl.Expr]Type
	// Globals maps global variable names to their info.
	Globals map[string]*VarInfo
	// GlobalOrder lists globals in declaration order.
	GlobalOrder []*VarInfo
	// Funcs maps function names to signatures (bodies checked too).
	Funcs map[string]*FuncInfo
}

// TypeOf returns the recorded type of an expression.
func (in *Info) TypeOf(e glsl.Expr) Type { return in.ExprTypes[e] }

// Uniforms returns the uniform globals in declaration order (samplers
// included) — the shader's introspectable interface, as used by the
// measurement harness (§IV-B).
func (in *Info) Uniforms() []*VarInfo {
	var out []*VarInfo
	for _, g := range in.GlobalOrder {
		if g.Qual == glsl.QualUniform {
			out = append(out, g)
		}
	}
	return out
}

// Inputs returns the "in" interface variables in declaration order.
func (in *Info) Inputs() []*VarInfo {
	var out []*VarInfo
	for _, g := range in.GlobalOrder {
		if g.Qual == glsl.QualIn {
			out = append(out, g)
		}
	}
	return out
}

// Outputs returns the "out" interface variables in declaration order.
func (in *Info) Outputs() []*VarInfo {
	var out []*VarInfo
	for _, g := range in.GlobalOrder {
		if g.Qual == glsl.QualOut {
			out = append(out, g)
		}
	}
	return out
}

// Check performs semantic analysis of a fragment shader.
func Check(sh *glsl.Shader) (*Info, error) {
	c := &checker{
		info: &Info{
			// Corpus texts have 0.04 to 0.38 expressions per token; a
			// third of the token count allocated the least over a
			// corpus sweep.
			ExprTypes: make(map[glsl.Expr]Type, sh.Tokens/3),
			Globals:   make(map[string]*VarInfo, len(sh.Decls)),
			Funcs:     make(map[string]*FuncInfo, len(sh.Decls)),
		},
		scopes: localTables.Get(),
	}
	defer localTables.Put(c.scopes)
	for _, d := range sh.Decls {
		switch d := d.(type) {
		case *glsl.PrecisionDecl:
			// No semantic effect in the subset.
		case *glsl.GlobalVar:
			if err := c.global(d); err != nil {
				return nil, err
			}
		case *glsl.FuncDecl:
			if err := c.function(d); err != nil {
				return nil, err
			}
		}
	}
	mainFn, ok := c.info.Funcs["main"]
	if !ok {
		return nil, fmt.Errorf("shader has no main function")
	}
	if !mainFn.Return.Equal(Void) || len(mainFn.Params) != 0 {
		return nil, fmt.Errorf("main must be void main()")
	}
	return c.info, nil
}

type checker struct {
	info   *Info
	scopes *scope.Table[Type] // function-local names
	ret    Type               // current function return type
}

// localTables holds the checkers' local-name tables between calls.
var localTables scope.Pool[Type]

func (c *checker) pushScope() { c.scopes.Push() }
func (c *checker) popScope()  { c.scopes.Pop() }

func (c *checker) declare(name string, t Type) { c.scopes.Bind(name, t) }

func (c *checker) lookup(name string) (Type, bool) {
	if t, ok := c.scopes.Lookup(name); ok {
		return t, true
	}
	if g, ok := c.info.Globals[name]; ok {
		return g.Type, true
	}
	return Void, false
}

func (c *checker) global(d *glsl.GlobalVar) error {
	t, err := FromSpec(d.Type)
	if err != nil {
		// Unsized array with initializer: take the length from it.
		if d.Type.IsArray() && d.Type.ArrayLen == 0 && d.Init != nil {
			if ac, ok := d.Init.(*glsl.ArrayCtorExpr); ok {
				base, berr := FromSpec(glsl.Scalar(d.Type.Name))
				if berr != nil {
					return fmt.Errorf("%s: %v", d.Pos, berr)
				}
				t = ArrayOf(base, len(ac.Elems))
				err = nil
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %v", d.Pos, err)
		}
	}
	if _, dup := c.info.Globals[d.Name]; dup {
		return fmt.Errorf("%s: duplicate global %q", d.Pos, d.Name)
	}
	if d.Init != nil {
		c.pushScope()
		it, ierr := c.expr(d.Init)
		c.popScope()
		if ierr != nil {
			return ierr
		}
		if !it.Equal(t) {
			return fmt.Errorf("%s: cannot initialize %s %s with %s", d.Pos, t, d.Name, it)
		}
		if d.Qual != glsl.QualConst && d.Qual != glsl.QualNone {
			return fmt.Errorf("%s: initializer on %s global %q", d.Pos, d.Qual, d.Name)
		}
	}
	vi := &VarInfo{Name: d.Name, Type: t, Qual: d.Qual, Decl: d}
	c.info.Globals[d.Name] = vi
	c.info.GlobalOrder = append(c.info.GlobalOrder, vi)
	return nil
}

func (c *checker) function(d *glsl.FuncDecl) error {
	ret, err := FromSpec(d.Return)
	if err != nil {
		return fmt.Errorf("%s: %v", d.Pos, err)
	}
	params := make([]Type, len(d.Params))
	for i, p := range d.Params {
		pt, perr := FromSpec(p.Type)
		if perr != nil {
			return fmt.Errorf("%s: param %s: %v", d.Pos, p.Name, perr)
		}
		params[i] = pt
	}
	fi := &FuncInfo{Name: d.Name, Return: ret, Params: params, Decl: d}
	if prev, ok := c.info.Funcs[d.Name]; ok {
		if prev.Decl.Body != nil && d.Body != nil {
			return fmt.Errorf("%s: redefinition of %q", d.Pos, d.Name)
		}
	}
	if d.Body == nil {
		if _, ok := c.info.Funcs[d.Name]; !ok {
			c.info.Funcs[d.Name] = fi
		}
		return nil
	}
	c.info.Funcs[d.Name] = fi
	c.ret = ret
	c.pushScope()
	for i, p := range d.Params {
		c.declare(p.Name, params[i])
	}
	err = c.block(d.Body)
	c.popScope()
	return err
}

func (c *checker) block(b *glsl.BlockStmt) error {
	c.pushScope()
	defer c.popScope()
	for _, s := range b.Stmts {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) stmt(s glsl.Stmt) error {
	switch s := s.(type) {
	case *glsl.BlockStmt:
		return c.block(s)
	case *glsl.DeclStmt:
		return c.declStmt(s)
	case *glsl.AssignStmt:
		return c.assign(s)
	case *glsl.IfStmt:
		ct, err := c.expr(s.Cond)
		if err != nil {
			return err
		}
		if !ct.Equal(Bool) {
			return fmt.Errorf("%s: if condition has type %s, want bool", s.Pos, ct)
		}
		if err := c.block(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return c.stmt(s.Else)
		}
		return nil
	case *glsl.ForStmt:
		c.pushScope()
		defer c.popScope()
		if s.Init != nil {
			if err := c.stmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			ct, err := c.expr(s.Cond)
			if err != nil {
				return err
			}
			if !ct.Equal(Bool) {
				return fmt.Errorf("%s: for condition has type %s, want bool", s.Pos, ct)
			}
		}
		if s.Post != nil {
			if err := c.stmt(s.Post); err != nil {
				return err
			}
		}
		return c.block(s.Body)
	case *glsl.WhileStmt:
		ct, err := c.expr(s.Cond)
		if err != nil {
			return err
		}
		if !ct.Equal(Bool) {
			return fmt.Errorf("%s: while condition has type %s, want bool", s.Pos, ct)
		}
		return c.block(s.Body)
	case *glsl.ReturnStmt:
		if s.Result == nil {
			if !c.ret.Equal(Void) {
				return fmt.Errorf("%s: missing return value (want %s)", s.Pos, c.ret)
			}
			return nil
		}
		rt, err := c.expr(s.Result)
		if err != nil {
			return err
		}
		if !rt.Equal(c.ret) {
			return fmt.Errorf("%s: return type %s, want %s", s.Pos, rt, c.ret)
		}
		return nil
	case *glsl.DiscardStmt, *glsl.BreakStmt, *glsl.ContinueStmt:
		return nil
	case *glsl.ExprStmt:
		_, err := c.expr(s.X)
		return err
	}
	return fmt.Errorf("unknown statement %T", s)
}

func (c *checker) declStmt(s *glsl.DeclStmt) error {
	t, err := FromSpec(s.Type)
	if err != nil {
		if s.Type.IsArray() && s.Type.ArrayLen == 0 && s.Init != nil {
			if ac, ok := s.Init.(*glsl.ArrayCtorExpr); ok {
				base, berr := FromSpec(glsl.Scalar(s.Type.Name))
				if berr != nil {
					return fmt.Errorf("%s: %v", s.Pos, berr)
				}
				t = ArrayOf(base, len(ac.Elems))
				err = nil
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %v", s.Pos, err)
		}
	}
	if s.Init != nil {
		it, ierr := c.expr(s.Init)
		if ierr != nil {
			return ierr
		}
		if !it.Equal(t) {
			return fmt.Errorf("%s: cannot initialize %s %s with %s", s.Pos, t, s.Name, it)
		}
	}
	c.declare(s.Name, t)
	return nil
}

func (c *checker) assign(s *glsl.AssignStmt) error {
	lt, err := c.lvalue(s.LHS)
	if err != nil {
		return err
	}
	rt, err := c.expr(s.RHS)
	if err != nil {
		return err
	}
	if s.Op == "=" {
		// Allow scalar broadcast on compound ops only; plain assignment
		// needs matching types.
		if !rt.Equal(lt) {
			return fmt.Errorf("%s: cannot assign %s to %s", s.Pos, rt, lt)
		}
		return nil
	}
	op := string(s.Op[0]) // "+=" -> "+"
	res, err := BinaryResult(op, lt, rt)
	if err != nil {
		return fmt.Errorf("%s: %v", s.Pos, err)
	}
	if !res.Equal(lt) {
		return fmt.Errorf("%s: compound assignment changes type %s to %s", s.Pos, lt, res)
	}
	return nil
}

// lvalue types the left-hand side of an assignment and validates
// assignability.
func (c *checker) lvalue(e glsl.Expr) (Type, error) {
	switch e := e.(type) {
	case *glsl.IdentExpr:
		t, ok := c.lookup(e.Name)
		if !ok {
			return Void, fmt.Errorf("%s: undefined variable %q", e.Pos, e.Name)
		}
		if g, isGlobal := c.info.Globals[e.Name]; isGlobal {
			if _, shadowed := c.localLookup(e.Name); !shadowed {
				switch g.Qual {
				case glsl.QualUniform, glsl.QualIn, glsl.QualConst:
					return Void, fmt.Errorf("%s: cannot assign to %s variable %q", e.Pos, g.Qual, e.Name)
				}
			}
		}
		c.info.ExprTypes[e] = t
		return t, nil
	case *glsl.IndexExpr:
		return c.expr(e)
	case *glsl.FieldExpr:
		// Swizzle store: components must not repeat.
		bt, err := c.lvalue(e.X)
		if err != nil {
			return Void, err
		}
		if !bt.IsVector() {
			return Void, fmt.Errorf("%s: swizzle store on non-vector %s", e.Pos, bt)
		}
		idx, err := SwizzleIndices(e.Name, bt.Vec)
		if err != nil {
			return Void, fmt.Errorf("%s: %v", e.Pos, err)
		}
		seen := map[int]bool{}
		for _, i := range idx {
			if seen[i] {
				return Void, fmt.Errorf("%s: duplicate component in swizzle store %q", e.Pos, e.Name)
			}
			seen[i] = true
		}
		t := VecType(bt.Kind, len(idx))
		if len(idx) == 1 {
			t = bt.ScalarOf()
		}
		c.info.ExprTypes[e] = t
		return t, nil
	}
	return Void, fmt.Errorf("%s: expression is not assignable", e.Position())
}

func (c *checker) localLookup(name string) (Type, bool) {
	if t, ok := c.scopes.Lookup(name); ok {
		return t, true
	}
	return Void, false
}

func (c *checker) expr(e glsl.Expr) (Type, error) {
	t, err := c.exprInner(e)
	if err != nil {
		return Void, err
	}
	c.info.ExprTypes[e] = t
	return t, nil
}

func (c *checker) exprInner(e glsl.Expr) (Type, error) {
	switch e := e.(type) {
	case *glsl.IntLitExpr:
		return Int, nil
	case *glsl.FloatLitExpr:
		return Float, nil
	case *glsl.BoolLitExpr:
		return Bool, nil
	case *glsl.IdentExpr:
		t, ok := c.lookup(e.Name)
		if !ok {
			return Void, fmt.Errorf("%s: undefined variable %q", e.Pos, e.Name)
		}
		return t, nil
	case *glsl.UnaryExpr:
		xt, err := c.expr(e.X)
		if err != nil {
			return Void, err
		}
		switch e.Op {
		case "-":
			if !xt.IsNumeric() || xt.IsArray() {
				return Void, fmt.Errorf("%s: negation of %s", e.Pos, xt)
			}
			return xt, nil
		case "!":
			if !xt.Equal(Bool) {
				return Void, fmt.Errorf("%s: logical not of %s", e.Pos, xt)
			}
			return Bool, nil
		}
		return Void, fmt.Errorf("%s: unknown unary %q", e.Pos, e.Op)
	case *glsl.BinaryExpr:
		xt, err := c.expr(e.X)
		if err != nil {
			return Void, err
		}
		yt, err := c.expr(e.Y)
		if err != nil {
			return Void, err
		}
		res, err := BinaryResult(e.Op, xt, yt)
		if err != nil {
			return Void, fmt.Errorf("%s: %v", e.Pos, err)
		}
		return res, nil
	case *glsl.CondExpr:
		ct, err := c.expr(e.Cond)
		if err != nil {
			return Void, err
		}
		if !ct.Equal(Bool) {
			return Void, fmt.Errorf("%s: ternary condition has type %s", e.Pos, ct)
		}
		tt, err := c.expr(e.Then)
		if err != nil {
			return Void, err
		}
		et, err := c.expr(e.Else)
		if err != nil {
			return Void, err
		}
		if !tt.Equal(et) {
			return Void, fmt.Errorf("%s: ternary arms have types %s and %s", e.Pos, tt, et)
		}
		return tt, nil
	case *glsl.CallExpr:
		return c.call(e)
	case *glsl.ArrayCtorExpr:
		elemT, err := FromSpec(e.Elem)
		if err != nil {
			return Void, fmt.Errorf("%s: %v", e.Pos, err)
		}
		if len(e.Elems) == 0 {
			return Void, fmt.Errorf("%s: empty array constructor", e.Pos)
		}
		for i, el := range e.Elems {
			et, eerr := c.expr(el)
			if eerr != nil {
				return Void, eerr
			}
			if !et.Equal(elemT) {
				return Void, fmt.Errorf("%s: array element %d has type %s, want %s", e.Pos, i+1, et, elemT)
			}
		}
		n := e.Len
		if n == 0 {
			n = len(e.Elems)
		}
		if n != len(e.Elems) {
			return Void, fmt.Errorf("%s: array constructor has %d elements, want %d", e.Pos, len(e.Elems), n)
		}
		return ArrayOf(elemT, n), nil
	case *glsl.IndexExpr:
		xt, err := c.expr(e.X)
		if err != nil {
			return Void, err
		}
		it, err := c.expr(e.Index)
		if err != nil {
			return Void, err
		}
		if !it.Equal(Int) {
			return Void, fmt.Errorf("%s: index has type %s, want int", e.Pos, it)
		}
		switch {
		case xt.IsArray():
			return xt.Elem(), nil
		case xt.IsMatrix():
			return VecType(KindFloat, xt.Mat), nil
		case xt.IsVector():
			return xt.ScalarOf(), nil
		}
		return Void, fmt.Errorf("%s: cannot index %s", e.Pos, xt)
	case *glsl.FieldExpr:
		xt, err := c.expr(e.X)
		if err != nil {
			return Void, err
		}
		if !xt.IsVector() {
			return Void, fmt.Errorf("%s: swizzle %q on non-vector %s", e.Pos, e.Name, xt)
		}
		idx, err := SwizzleIndices(e.Name, xt.Vec)
		if err != nil {
			return Void, fmt.Errorf("%s: %v", e.Pos, err)
		}
		if len(idx) == 1 {
			return xt.ScalarOf(), nil
		}
		return VecType(xt.Kind, len(idx)), nil
	}
	return Void, fmt.Errorf("unknown expression %T", e)
}

func (c *checker) call(e *glsl.CallExpr) (Type, error) {
	args := make([]Type, len(e.Args))
	for i, a := range e.Args {
		at, err := c.expr(a)
		if err != nil {
			return Void, err
		}
		args[i] = at
	}
	if IsConstructor(e.Callee) {
		t, err := ResolveConstructor(e.Callee, args)
		if err != nil {
			return Void, fmt.Errorf("%s: %v", e.Pos, err)
		}
		return t, nil
	}
	if IsBuiltin(e.Callee) {
		t, err := ResolveBuiltin(e.Callee, args)
		if err != nil {
			return Void, fmt.Errorf("%s: %v", e.Pos, err)
		}
		return t, nil
	}
	fn, ok := c.info.Funcs[e.Callee]
	if !ok {
		return Void, fmt.Errorf("%s: call to undefined function %q", e.Pos, e.Callee)
	}
	if len(args) != len(fn.Params) {
		return Void, fmt.Errorf("%s: %s takes %d args, got %d", e.Pos, e.Callee, len(fn.Params), len(args))
	}
	for i := range args {
		if !args[i].Equal(fn.Params[i]) {
			return Void, fmt.Errorf("%s: %s arg %d has type %s, want %s", e.Pos, e.Callee, i+1, args[i], fn.Params[i])
		}
	}
	return fn.Return, nil
}
