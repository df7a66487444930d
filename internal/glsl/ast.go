package glsl

import "shaderopt/internal/lex"

// TypeSpec is a syntactic type reference: a builtin type name plus an
// optional array length. ArrayLen < 0 means "not an array"; ArrayLen == 0
// means an unsized array ("float[]"), which is only legal with an
// initializer that determines the size.
type TypeSpec struct {
	Name     string
	ArrayLen int
}

// Scalar returns the TypeSpec for a non-array type name.
func Scalar(name string) TypeSpec { return TypeSpec{Name: name, ArrayLen: -1} }

// IsArray reports whether the spec denotes an array type.
func (t TypeSpec) IsArray() bool { return t.ArrayLen >= 0 }

func (t TypeSpec) String() string {
	if !t.IsArray() {
		return t.Name
	}
	if t.ArrayLen == 0 {
		return t.Name + "[]"
	}
	return t.Name + "[" + itoa(t.ArrayLen) + "]"
}

// Shader is a parsed translation unit.
type Shader struct {
	Version string // contents of the #version directive, e.g. "330" or "300 es"
	Decls   []Decl
	// Tokens is the number of tokens Parse read the shader from, 0 for a
	// shader built another way. The checker sizes its tables from it.
	Tokens int
}

// Decl is a top-level declaration.
type Decl interface{ declNode() }

// Qualifier is a storage qualifier for globals and parameters.
type Qualifier int

// Storage qualifiers.
const (
	QualNone Qualifier = iota
	QualConst
	QualUniform
	QualIn
	QualOut
	QualInOut
)

func (q Qualifier) String() string {
	switch q {
	case QualConst:
		return "const"
	case QualUniform:
		return "uniform"
	case QualIn:
		return "in"
	case QualOut:
		return "out"
	case QualInOut:
		return "inout"
	}
	return ""
}

// GlobalVar is a module-scope variable declaration: uniforms, shader inputs
// and outputs, and global constants.
type GlobalVar struct {
	Pos       lex.Pos
	Qual      Qualifier
	Precision string // "", "lowp", "mediump", "highp"
	Layout    string // raw layout(...) contents, e.g. "location = 0"
	Type      TypeSpec
	Name      string
	Init      Expr // may be nil
}

// PrecisionDecl is a "precision mediump float;" statement.
type PrecisionDecl struct {
	Pos       lex.Pos
	Precision string
	Type      string
}

// Param is a function parameter.
type Param struct {
	Qual Qualifier // QualNone, QualIn, QualOut, QualInOut
	Type TypeSpec
	Name string
}

// FuncDecl is a function definition. Prototypes (no body) have Body == nil.
type FuncDecl struct {
	Pos    lex.Pos
	Return TypeSpec
	Name   string
	Params []Param
	Body   *BlockStmt
}

func (*GlobalVar) declNode()     {}
func (*PrecisionDecl) declNode() {}
func (*FuncDecl) declNode()      {}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// BlockStmt is a brace-delimited statement list.
type BlockStmt struct {
	Pos   lex.Pos
	Stmts []Stmt
}

// DeclStmt declares a local variable, optionally const, optionally array.
type DeclStmt struct {
	Pos   lex.Pos
	Const bool
	Type  TypeSpec
	Name  string
	Init  Expr // may be nil
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

// ForStmt is a canonical counted loop:
//
//	for (Init; Cond; Post) Body
//
// Init and Post may be nil (but the corpus always uses the canonical form).
type ForStmt struct {
	Pos  lex.Pos
	Init Stmt // *DeclStmt or *AssignStmt
	Cond Expr
	Post Stmt // *AssignStmt
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

// Expr is an expression node; Position reports its source position.
type Expr interface{ Position() lex.Pos }

// IdentExpr references a variable by name.
type IdentExpr struct {
	Pos  lex.Pos
	Name string
}

// IntLitExpr is an integer literal.
type IntLitExpr struct {
	Pos   lex.Pos
	Value int64
}

// FloatLitExpr is a floating point literal.
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
// + - * / % < > <= >= == != && || ^^.
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

// CallExpr calls a builtin function, a type constructor (vec4(...)), or a
// user-defined function.
type CallExpr struct {
	Pos    lex.Pos
	Callee string
	Args   []Expr
}

// ArrayCtorExpr is a GLSL array constructor: float[3](a, b, c) or
// vec2[](x, y). Len == 0 means the length comes from len(Elems).
type ArrayCtorExpr struct {
	Pos   lex.Pos
	Elem  TypeSpec
	Len   int
	Elems []Expr
}

// IndexExpr subscripts an array, vector, or matrix.
type IndexExpr struct {
	Pos   lex.Pos
	X     Expr
	Index Expr
}

// FieldExpr is a swizzle selection like v.xyz or v.r.
type FieldExpr struct {
	Pos  lex.Pos
	X    Expr
	Name string
}

func (e *IdentExpr) Position() lex.Pos     { return e.Pos }
func (e *IntLitExpr) Position() lex.Pos    { return e.Pos }
func (e *FloatLitExpr) Position() lex.Pos  { return e.Pos }
func (e *BoolLitExpr) Position() lex.Pos   { return e.Pos }
func (e *BinaryExpr) Position() lex.Pos    { return e.Pos }
func (e *UnaryExpr) Position() lex.Pos     { return e.Pos }
func (e *CondExpr) Position() lex.Pos      { return e.Pos }
func (e *CallExpr) Position() lex.Pos      { return e.Pos }
func (e *ArrayCtorExpr) Position() lex.Pos { return e.Pos }
func (e *IndexExpr) Position() lex.Pos     { return e.Pos }
func (e *FieldExpr) Position() lex.Pos     { return e.Pos }

// Funcs returns the function declarations in the shader, in order.
func (s *Shader) Funcs() []*FuncDecl {
	var out []*FuncDecl
	for _, d := range s.Decls {
		if f, ok := d.(*FuncDecl); ok {
			out = append(out, f)
		}
	}
	return out
}

// Func returns the function with the given name, or nil.
func (s *Shader) Func(name string) *FuncDecl {
	for _, d := range s.Decls {
		if f, ok := d.(*FuncDecl); ok && f.Name == name {
			return f
		}
	}
	return nil
}

// Globals returns the global variable declarations in order.
func (s *Shader) Globals() []*GlobalVar {
	var out []*GlobalVar
	for _, d := range s.Decls {
		if g, ok := d.(*GlobalVar); ok {
			out = append(out, g)
		}
	}
	return out
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
