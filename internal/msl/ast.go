package msl

import (
	"shaderopt/internal/bind"
	"shaderopt/internal/lex"
)

// Module is a parsed MSL translation unit. Function bodies are the
// statement and expression tree the three non-GLSL frontends share
// (internal/bind); the declarations here are MSL's own. A C-style `[N]`
// member or local declarator folds into an array TypeExpr.
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

// StructField is one attributed member of a struct declaration.
type StructField struct {
	Type *bind.TypeExpr
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
	Type *bind.TypeExpr
	Name string
	Init bind.Expr
}

// Param is one function parameter.
type Param struct {
	Space string // "constant", "device", "thread", or "" for plain values
	Type  *bind.TypeExpr
	Ref   bool // & reference
	Name  string
	Attr  Attr
}

// FnDecl is a function definition. Fragment is set for the entry point.
type FnDecl struct {
	Pos      lex.Pos
	Fragment bool
	Ret      *bind.TypeExpr
	Name     string
	Params   []Param
	Body     *bind.BlockStmt
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
