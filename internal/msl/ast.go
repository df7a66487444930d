package msl

import (
	"fmt"
	"strings"

	"shaderopt/internal/lex"
)

// Module is a parsed MSL translation unit.
type Module struct {
	Decls []Decl
}

// Decl is a module-scope declaration.
type Decl interface{ declNode() }

func (*StructDecl) declNode() {}
func (*GlobalVar) declNode()  {}
func (*FnDecl) declNode()     {}

// Attr is one [[...]] attribute: a name plus an optional integer argument
// ([[stage_in]], [[buffer(0)]], [[user(locn2)]], [[color(0)]]).
type Attr struct {
	Name string
	Arg  int // -1 when absent; for user(locnN) the N
}

// TypeExpr is a syntactic type reference. Template arguments cover the
// texture types (texture2d<float>) and array<T, N>.
type TypeExpr struct {
	Pos  lex.Pos
	Name string
	Elem *TypeExpr // template element type, nil if none
	Len  int       // array<T, N> length; -1 if none
}

func (t *TypeExpr) String() string {
	if t == nil {
		return "<nil>"
	}
	switch {
	case t.Name == "array" && t.Elem != nil:
		return fmt.Sprintf("array<%s, %d>", t.Elem, t.Len)
	case t.Elem != nil:
		return fmt.Sprintf("%s<%s>", t.Name, t.Elem)
	}
	return t.Name
}

// StructField is one attributed member of a struct declaration.
type StructField struct {
	Type *TypeExpr
	Name string
	Attr Attr // zero Name when unattributed
}

// StructDecl is a struct type declaration (stage_in, uniform buffer, and
// output structs in the emitted dialect).
type StructDecl struct {
	Pos    lex.Pos
	Name   string
	Fields []StructField
}

// GlobalVar is a module-scope constant (`constant float kPi = 3.14;`).
type GlobalVar struct {
	Pos  lex.Pos
	Type *TypeExpr
	Name string
	Init Expr
}

// Param is one function parameter.
type Param struct {
	Space string // "constant", "device", "thread", or "" for plain values
	Type  *TypeExpr
	Ref   bool // & reference
	Name  string
	Attr  Attr
}

// FnDecl is a function definition. Fragment is set for the entry point.
type FnDecl struct {
	Pos      lex.Pos
	Fragment bool
	Ret      *TypeExpr
	Name     string
	Params   []Param
	Body     *BlockStmt
}

// Fns returns the function declarations in order.
func (m *Module) Fns() []*FnDecl {
	var fns []*FnDecl
	for _, d := range m.Decls {
		if fn, ok := d.(*FnDecl); ok {
			fns = append(fns, fn)
		}
	}
	return fns
}

// Structs returns the struct declarations in order.
func (m *Module) Structs() []*StructDecl {
	var sts []*StructDecl
	for _, d := range m.Decls {
		if st, ok := d.(*StructDecl); ok {
			sts = append(sts, st)
		}
	}
	return sts
}

// EntryPoint returns the fragment entry function, or nil.
func (m *Module) EntryPoint() *FnDecl {
	for _, fn := range m.Fns() {
		if fn.Fragment {
			return fn
		}
	}
	return nil
}

// --- statements ---

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

func (*BlockStmt) stmtNode()    {}
func (*DeclStmt) stmtNode()     {}
func (*AssignStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*ForStmt) stmtNode()      {}
func (*WhileStmt) stmtNode()    {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ExprStmt) stmtNode()     {}

// BlockStmt is a braced statement list.
type BlockStmt struct {
	Pos   lex.Pos
	Stmts []Stmt
}

// DeclStmt declares a local variable.
type DeclStmt struct {
	Pos   lex.Pos
	Const bool
	Type  *TypeExpr
	Name  string
	Init  Expr // may be nil
}

// AssignStmt assigns to an lvalue with = or a compound operator.
type AssignStmt struct {
	Pos lex.Pos
	LHS Expr
	Op  string
	RHS Expr
}

// IfStmt is a conditional.
type IfStmt struct {
	Pos  lex.Pos
	Cond Expr
	Then *BlockStmt
	Else Stmt // *BlockStmt, *IfStmt, or nil
}

// ForStmt is a C-style for loop.
type ForStmt struct {
	Pos  lex.Pos
	Init Stmt // *DeclStmt or *AssignStmt, may be nil
	Cond Expr
	Post Stmt // *AssignStmt, may be nil
	Body *BlockStmt
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Pos  lex.Pos
	Cond Expr
	Body *BlockStmt
}

// ReturnStmt returns from a function.
type ReturnStmt struct {
	Pos   lex.Pos
	Value Expr // may be nil
}

// BreakStmt breaks a loop.
type BreakStmt struct{ Pos lex.Pos }

// ContinueStmt continues a loop.
type ContinueStmt struct{ Pos lex.Pos }

// ExprStmt evaluates an expression for effect (discard_fragment()).
type ExprStmt struct {
	Pos lex.Pos
	X   Expr
}

// --- expressions ---

// Expr is an expression node.
type Expr interface{ exprNode() }

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
func (*ArrayLitExpr) exprNode()   {}

// IdentExpr references a name.
type IdentExpr struct {
	Pos  lex.Pos
	Name string
}

// IntLitExpr is an integer literal.
type IntLitExpr struct {
	Pos  lex.Pos
	Text string
}

// FloatLitExpr is a float literal.
type FloatLitExpr struct {
	Pos  lex.Pos
	Text string
}

// BoolLitExpr is true/false.
type BoolLitExpr struct {
	Pos   lex.Pos
	Value bool
}

// BinaryExpr applies an infix operator.
type BinaryExpr struct {
	Pos  lex.Pos
	Op   string
	X, Y Expr
}

// UnaryExpr applies a prefix operator ("-" or "!").
type UnaryExpr struct {
	Pos lex.Pos
	Op  string
	X   Expr
}

// CondExpr is the ?: ternary.
type CondExpr struct {
	Pos        lex.Pos
	Cond, X, Y Expr
}

// CallExpr calls a named function or type constructor.
type CallExpr struct {
	Pos    lex.Pos
	Callee string
	Args   []Expr
}

// MethodCallExpr calls a method on a receiver (tex.sample(...)).
type MethodCallExpr struct {
	Pos    lex.Pos
	Recv   Expr
	Method string
	Args   []Expr
}

// IndexExpr subscripts an aggregate.
type IndexExpr struct {
	Pos   lex.Pos
	X     Expr
	Index Expr
}

// MemberExpr accesses a member or swizzle.
type MemberExpr struct {
	Pos  lex.Pos
	X    Expr
	Name string
}

// ArrayLitExpr is the array<T, N>{...} braced constructor.
type ArrayLitExpr struct {
	Pos   lex.Pos
	Elem  *TypeExpr
	Len   int
	Elems []Expr
}

// exprString is a debugging aid for error messages.
func exprString(e Expr) string {
	switch e := e.(type) {
	case *IdentExpr:
		return e.Name
	case *MemberExpr:
		return exprString(e.X) + "." + e.Name
	case *IndexExpr:
		return exprString(e.X) + "[...]"
	default:
		return strings.TrimPrefix(fmt.Sprintf("%T", e), "*msl.")
	}
}
