package hlsl

import (
	"strings"

	"shaderopt/internal/lex"
)

// Module is a parsed HLSL translation unit.
type Module struct {
	Decls []Decl
}

// TypeExpr is a syntactic type reference: an intrinsic type name, with an
// optional template argument for resource types (Texture2D<float4> has
// Name "Texture2D" and Elem "float4"). Array-ness is C-style and lives on
// the declarator, not the type.
type TypeExpr struct {
	Pos  lex.Pos
	Name string
	Elem string // template argument; "" when absent
}

func (t *TypeExpr) String() string {
	if t == nil {
		return "<missing>"
	}
	if t.Elem != "" {
		return t.Name + "<" + t.Elem + ">"
	}
	return t.Name
}

// Decl is a module-scope declaration.
type Decl interface{ declNode() }

// CBufferMember is one field of a cbuffer block.
type CBufferMember struct {
	Pos      lex.Pos
	Type     *TypeExpr
	Name     string
	ArrayLen int // -1 when not an array
}

// CBufferDecl is a `cbuffer Name : register(bN) { ... };` constant block.
// The block structure is a binding detail: members lower to individual
// uniforms, exactly as fxc assigns loose $Globals.
type CBufferDecl struct {
	Pos      lex.Pos
	Name     string
	Register string // raw register(...) argument, e.g. "b0"; "" when absent
	Members  []CBufferMember
}

// GlobalVar is a module-scope variable declaration: a resource binding
// (Texture2D, SamplerState), a loose $Globals uniform, or a
// static/static-const global.
type GlobalVar struct {
	Pos      lex.Pos
	Static   bool
	Const    bool
	Type     *TypeExpr
	Name     string
	ArrayLen int    // -1 when not an array
	Register string // raw register(...) argument; "" when absent
	Init     Expr   // may be nil
}

// Param is a function parameter, optionally semantic-annotated on entry
// points (`float2 uv : TEXCOORD0`).
type Param struct {
	Qual     string // "", "in", "out", "inout"
	Type     *TypeExpr
	Name     string
	ArrayLen int // -1 when not an array
	Semantic string
}

// FnDecl is a function definition. Pixel-shader entry points carry an
// SV_Target return semantic.
type FnDecl struct {
	Pos         lex.Pos
	Ret         *TypeExpr
	Name        string
	Params      []Param
	RetSemantic string
	Body        *BlockStmt
}

func (*CBufferDecl) declNode() {}
func (*GlobalVar) declNode()   {}
func (*FnDecl) declNode()      {}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// BlockStmt is a brace-delimited statement list.
type BlockStmt struct {
	Pos   lex.Pos
	Stmts []Stmt
}

// DeclStmt declares a C-style local variable, optionally const, optionally
// array.
type DeclStmt struct {
	Pos      lex.Pos
	Const    bool
	Type     *TypeExpr
	Name     string
	ArrayLen int  // -1 when not an array; 0 means the initializer sizes it
	Init     Expr // may be nil
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

// CondExpr is the ternary ?: operator.
type CondExpr struct {
	Pos        lex.Pos
	Cond       Expr
	Then, Else Expr
}

// CallExpr calls an intrinsic, a type constructor (float4(...)), or a
// user function.
type CallExpr struct {
	Pos    lex.Pos
	Callee string
	Args   []Expr
}

// MethodCallExpr is a resource method invocation such as
// tex.Sample(samp, uv) or tex.SampleLevel(samp, uv, lod).
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

// MemberExpr is a swizzle selection like v.xyz or v.r.
type MemberExpr struct {
	Pos  lex.Pos
	X    Expr
	Name string
}

// InitListExpr is a C-style brace initializer `{a, b, c}`, legal only as
// an array initializer in the subset.
type InitListExpr struct {
	Pos   lex.Pos
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

// EntryPoint returns the pixel-shader entry point: the function whose
// return semantic is SV_Target (any case, optional render-target digit),
// falling back to a function named "main". Returns nil when neither
// exists.
func (m *Module) EntryPoint() *FnDecl {
	for _, f := range m.Fns() {
		if IsSVTarget(f.RetSemantic) {
			return f
		}
	}
	for _, f := range m.Fns() {
		if f.Name == "main" {
			return f
		}
	}
	return nil
}

// IsSVTarget reports whether a semantic names an SV_Target render-target
// output (semantics are case-insensitive; an optional trailing digit
// selects the target index).
func IsSVTarget(sem string) bool {
	s := strings.ToLower(sem)
	if !strings.HasPrefix(s, "sv_target") {
		return false
	}
	rest := s[len("sv_target"):]
	if rest == "" {
		return true
	}
	return len(rest) == 1 && rest[0] >= '0' && rest[0] <= '7'
}
