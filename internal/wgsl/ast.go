package wgsl

import "shaderopt/internal/lex"

// Module is a parsed WGSL translation unit.
type Module struct {
	Decls []Decl
}

// Attr is a WGSL attribute such as @fragment, @location(0), @group(1), or
// @builtin(position). Args holds the raw argument tokens.
type Attr struct {
	Pos  lex.Pos
	Name string
	Args []string
}

// TypeExpr is a syntactic type reference: a (possibly templated) type name.
// vec2<f32> has Name "vec2" and Elem f32; array<f32, 9> has Name "array",
// Elem f32, and Len 9; plain names (f32, vec4f, sampler) have Elem nil.
type TypeExpr struct {
	Pos  lex.Pos
	Name string
	Elem *TypeExpr
	Len  int // array element count; 0 when absent
}

func (t *TypeExpr) String() string {
	if t == nil {
		return "<inferred>"
	}
	switch {
	case t.Name == "array" && t.Elem != nil:
		return "array<" + t.Elem.String() + ", " + itoa(t.Len) + ">"
	case t.Elem != nil:
		return t.Name + "<" + t.Elem.String() + ">"
	}
	return t.Name
}

// Decl is a module-scope declaration.
type Decl interface{ declNode() }

// GlobalVar is a module-scope `var` declaration. AddressSpace is the
// template argument ("uniform", "private", or "" for resource bindings
// like textures and samplers).
type GlobalVar struct {
	Pos          lex.Pos
	Attrs        []Attr
	AddressSpace string
	Name         string
	Type         *TypeExpr // may be nil when Init determines the type
	Init         Expr      // may be nil
}

// ConstDecl is a module-scope `const` (or legacy module `let`) declaration.
type ConstDecl struct {
	Pos  lex.Pos
	Name string
	Type *TypeExpr // may be nil (inferred)
	Init Expr
}

// Param is a function parameter, optionally attributed (@location(0),
// @builtin(position)) on entry points.
type Param struct {
	Attrs []Attr
	Name  string
	Type  *TypeExpr
}

// FnDecl is a function declaration. Entry points carry stage attributes
// (@fragment) and attributed return types.
type FnDecl struct {
	Pos      lex.Pos
	Attrs    []Attr
	Name     string
	Params   []Param
	Ret      *TypeExpr // nil for no return value
	RetAttrs []Attr
	Body     *BlockStmt
}

func (*GlobalVar) declNode() {}
func (*ConstDecl) declNode() {}
func (*FnDecl) declNode()    {}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// BlockStmt is a brace-delimited statement list.
type BlockStmt struct {
	Pos   lex.Pos
	Stmts []Stmt
}

// LetStmt declares an immutable binding (`let` or function-scope `const`).
type LetStmt struct {
	Pos  lex.Pos
	Name string
	Type *TypeExpr // may be nil (inferred from Init)
	Init Expr
}

// VarStmt declares a mutable function-scope variable.
type VarStmt struct {
	Pos  lex.Pos
	Name string
	Type *TypeExpr // may be nil (inferred from Init)
	Init Expr      // may be nil only when Type is present
}

// AssignStmt assigns to an lvalue. Op is "=", "+=", "-=", "*=", "/=".
type AssignStmt struct {
	Pos lex.Pos
	LHS Expr
	Op  string
	RHS Expr
}

// IfStmt is a conditional. Else is nil, a *BlockStmt, or a chained *IfStmt.
type IfStmt struct {
	Pos  lex.Pos
	Cond Expr
	Then *BlockStmt
	Else Stmt
}

// ForStmt is a `for (init; cond; post) { ... }` loop; any header part may
// be nil.
type ForStmt struct {
	Pos  lex.Pos
	Init Stmt
	Cond Expr
	Post Stmt
	Body *BlockStmt
}

// WhileStmt is a condition-only loop.
type WhileStmt struct {
	Pos  lex.Pos
	Cond Expr
	Body *BlockStmt
}

// ReturnStmt returns from a function, with an optional result.
type ReturnStmt struct {
	Pos    lex.Pos
	Result Expr // may be nil
}

// DiscardStmt abandons the current fragment.
type DiscardStmt struct{ Pos lex.Pos }

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Pos lex.Pos }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Pos lex.Pos }

// ExprStmt evaluates an expression for side effects (function calls).
type ExprStmt struct {
	Pos lex.Pos
	X   Expr
}

func (*BlockStmt) stmtNode()    {}
func (*LetStmt) stmtNode()      {}
func (*VarStmt) stmtNode()      {}
func (*AssignStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()   {}
func (*DiscardStmt) stmtNode()  {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ExprStmt) stmtNode()     {}

// Expr is an expression node.
type Expr interface{ exprNode() }

// IdentExpr references a variable by name.
type IdentExpr struct {
	Pos  lex.Pos
	Name string
}

// IntLitExpr is an integer literal (suffix already stripped).
type IntLitExpr struct {
	Pos   lex.Pos
	Value int64
}

// FloatLitExpr is a floating point literal (suffix already stripped).
type FloatLitExpr struct {
	Pos   lex.Pos
	Value float64
}

// BoolLitExpr is true or false.
type BoolLitExpr struct {
	Pos   lex.Pos
	Value bool
}

// BinaryExpr applies a binary operator. Op is one of
// + - * / % < > <= >= == != && ||.
type BinaryExpr struct {
	Pos  lex.Pos
	Op   string
	X, Y Expr
}

// UnaryExpr applies a prefix operator: "-" or "!".
type UnaryExpr struct {
	Pos lex.Pos
	Op  string
	X   Expr
}

// CallExpr calls a builtin function, a type constructor, or a user
// function. Constructors spelled with template syntax (vec4<f32>(...),
// array<f32, 9>(...)) carry the resolved type in TypeArg; for plain calls
// TypeArg is nil and Callee holds the name.
type CallExpr struct {
	Pos     lex.Pos
	Callee  string
	TypeArg *TypeExpr
	Args    []Expr
}

// IndexExpr subscripts an array, vector, or matrix.
type IndexExpr struct {
	Pos   lex.Pos
	X     Expr
	Index Expr
}

// MemberExpr is a swizzle selection like v.xyz or v.r.
type MemberExpr struct {
	Pos  lex.Pos
	X    Expr
	Name string
}

func (*IdentExpr) exprNode()    {}
func (*IntLitExpr) exprNode()   {}
func (*FloatLitExpr) exprNode() {}
func (*BoolLitExpr) exprNode()  {}
func (*BinaryExpr) exprNode()   {}
func (*UnaryExpr) exprNode()    {}
func (*CallExpr) exprNode()     {}
func (*IndexExpr) exprNode()    {}
func (*MemberExpr) exprNode()   {}

// HasAttr reports whether an attribute list contains name.
func HasAttr(attrs []Attr, name string) bool {
	for _, a := range attrs {
		if a.Name == name {
			return true
		}
	}
	return false
}

// FindAttr returns the named attribute, if present.
func FindAttr(attrs []Attr, name string) (Attr, bool) {
	for _, a := range attrs {
		if a.Name == name {
			return a, true
		}
	}
	return Attr{}, false
}

// Fns returns the function declarations in the module, in order.
func (m *Module) Fns() []*FnDecl {
	var out []*FnDecl
	for _, d := range m.Decls {
		if f, ok := d.(*FnDecl); ok {
			out = append(out, f)
		}
	}
	return out
}

// EntryPoint returns the @fragment entry function, or nil.
func (m *Module) EntryPoint() *FnDecl {
	for _, f := range m.Fns() {
		if HasAttr(f.Attrs, "fragment") {
			return f
		}
	}
	return nil
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
