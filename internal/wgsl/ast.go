package wgsl

import (
	"shaderopt/internal/bind"
	"shaderopt/internal/lex"
)

// Module is a parsed WGSL translation unit. Function bodies are the
// statement and expression tree the three non-GLSL frontends share
// (internal/bind), with `let` and `var` as its declaration statement; the
// declarations here are WGSL's own.
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
	Type         *bind.TypeExpr // may be nil when Init determines the type
	Init         bind.Expr      // may be nil
}

// ConstDecl is a module-scope `const` (or legacy module `let`) declaration.
type ConstDecl struct {
	Pos  lex.Pos
	Name string
	Type *bind.TypeExpr // may be nil (inferred)
	Init bind.Expr
}

// Param is a function parameter, optionally attributed (@location(0),
// @builtin(position)) on entry points.
type Param struct {
	Attrs []Attr
	Name  string
	Type  *bind.TypeExpr
}

// FnDecl is a function declaration. Entry points carry stage attributes
// (@fragment) and attributed return types.
type FnDecl struct {
	Pos      lex.Pos
	Attrs    []Attr
	Name     string
	Params   []Param
	Ret      *bind.TypeExpr // nil for no return value
	RetAttrs []Attr
	Body     *bind.BlockStmt
}

func (*GlobalVar) declNode() {}
func (*ConstDecl) declNode() {}
func (*FnDecl) declNode()    {}

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
