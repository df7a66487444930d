package bind

import (
	"fmt"

	"shaderopt/internal/lex"
)

// TypeExpr is a syntactic type reference: a type name with an optional
// template element and array length. Texture2D<float4> (HLSL) has Name
// "Texture2D" and Elem float4; vec2<f32> (WGSL) has Name "vec2" and Elem
// f32; array<f32, 9> (WGSL, MSL) and a C-style `float k[9]` declarator
// (HLSL, MSL) both have Name "array", Elem the element type and Len 9. Len
// is 0 when absent.
type TypeExpr struct {
	Pos  lex.Pos
	Name string
	Elem *TypeExpr
	Len  int
}

func (t *TypeExpr) String() string {
	switch {
	case t == nil:
		return "<missing>"
	case t.Name == "array" && t.Elem != nil:
		return fmt.Sprintf("array<%s, %d>", t.Elem, t.Len)
	case t.Elem != nil:
		return t.Name + "<" + t.Elem.String() + ">"
	}
	return t.Name
}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// BlockStmt is a brace-delimited statement list.
type BlockStmt struct {
	Pos   lex.Pos
	Stmts []Stmt
}

// DeclStmt declares a local variable: a C-style declaration (HLSL, MSL)
// or a WGSL `let`/`var`. Const marks an immutable binding (C const, WGSL
// let).
type DeclStmt struct {
	Pos   lex.Pos
	Const bool
	Type  *TypeExpr // nil when Init determines the type (WGSL)
	Name  string
	Init  Expr // may be nil
}

// AssignStmt assigns to an lvalue. Op is "=" or a compound operator.
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
func (*DeclStmt) stmtNode()     {}
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

// IntLitExpr is an integer literal, its value parsed by the parser.
type IntLitExpr struct {
	Pos   lex.Pos
	Value int64
}

// FloatLitExpr is a floating point literal, its value parsed by the
// parser.
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

// CondExpr is the ternary ?: operator (HLSL, MSL).
type CondExpr struct {
	Pos        lex.Pos
	Cond       Expr
	Then, Else Expr
}

// CallExpr calls a builtin, a type constructor, or a user function.
// Constructors spelled with template syntax (WGSL vec4<f32>(...),
// array<f32, 9>(...)) carry the type in TypeArg; for plain calls TypeArg
// is nil and Callee holds the name.
type CallExpr struct {
	Pos     lex.Pos
	Callee  string
	TypeArg *TypeExpr
	Args    []Expr
}

// MethodCallExpr is a resource method invocation such as HLSL
// tex.Sample(samp, uv) or MSL tex.sample(samp, uv).
type MethodCallExpr struct {
	Pos    lex.Pos
	Recv   Expr
	Method string
	Args   []Expr
}

// IndexExpr subscripts an array, vector, or matrix.
type IndexExpr struct {
	Pos   lex.Pos
	X     Expr
	Index Expr
}

// MemberExpr is a swizzle like v.xyz, or an MSL interface-struct member.
type MemberExpr struct {
	Pos  lex.Pos
	X    Expr
	Name string
}

// InitListExpr is a brace initializer: a bare `{a, b, c}` (HLSL, MSL),
// legal only as an array initializer, or MSL's typed array<T, N>{a, b, c},
// whose Type is the array type.
type InitListExpr struct {
	Pos   lex.Pos
	Type  *TypeExpr // nil for a bare list
	Elems []Expr
}

func (*IdentExpr) exprNode()      {}
func (*IntLitExpr) exprNode()     {}
func (*FloatLitExpr) exprNode()   {}
func (*BoolLitExpr) exprNode()    {}
func (*BinaryExpr) exprNode()     {}
func (*UnaryExpr) exprNode()      {}
func (*CondExpr) exprNode()       {}
func (*CallExpr) exprNode()       {}
func (*MethodCallExpr) exprNode() {}
func (*IndexExpr) exprNode()      {}
func (*MemberExpr) exprNode()     {}
func (*InitListExpr) exprNode()   {}
