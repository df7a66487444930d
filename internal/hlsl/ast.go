package hlsl

import (
	"strings"

	"shaderopt/internal/bind"
	"shaderopt/internal/lex"
)

// Module is a parsed HLSL translation unit. Function bodies are the
// statement and expression tree the three non-GLSL frontends share
// (internal/bind); the declarations here are HLSL's own. Array-ness is
// C-style and lives on the declarator; the parser folds a `[N]` suffix
// into an array TypeExpr, sizing `[]` from a brace initializer.
type Module struct {
	Decls []Decl
}

// Decl is a module-scope declaration.
type Decl interface{ declNode() }

// CBufferMember is one field of a cbuffer block.
type CBufferMember struct {
	Pos  lex.Pos
	Type *bind.TypeExpr
	Name string
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
	Type     *bind.TypeExpr
	Name     string
	Register string    // raw register(...) argument; "" when absent
	Init     bind.Expr // may be nil
}

// Param is a function parameter, optionally semantic-annotated on entry
// points (`float2 uv : TEXCOORD0`).
type Param struct {
	Qual     string // "", "in", "out", "inout"
	Type     *bind.TypeExpr
	Name     string
	Semantic string
}

// FnDecl is a function definition. Pixel-shader entry points carry an
// SV_Target return semantic.
type FnDecl struct {
	Pos         lex.Pos
	Ret         *bind.TypeExpr
	Name        string
	Params      []Param
	RetSemantic string
	Body        *bind.BlockStmt
}

func (*CBufferDecl) declNode() {}
func (*GlobalVar) declNode()   {}
func (*FnDecl) declNode()      {}

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
