// Package bind is the parser and binder the HLSL, WGSL and MSL frontends
// share. One Parser (parse.go) builds one statement and expression tree
// (tree.go) for all three, and one Binder translates it into the
// compiler's canonical surface form, the checked GLSL AST, inferring each
// expression's sem type as it goes.
//
// The Parser owns everything below module scope: blocks and statements,
// the expression grammar with its one precedence table, call arguments,
// brace initializers, C-style array declarators and literals. A frontend
// supplies a Grammar: a few facts about its syntax (literal suffixes;
// whether ?:, methods and %= exist; C's parenthesised conditions and
// unbraced bodies against WGSL's braces) and hooks for its local
// declarations, its type references and the primaries only it has.
//
// The Binder owns everything the three languages have in common: value
// scopes keyed by the original source name, the Namer that keeps every
// emitted spelling GLSL-safe, the sem→GLSL type spelling, helper
// signatures and parameters, sampler bindings, and the translation of
// every shared node: literals, operators, indexing, swizzles, builtin,
// constructor and user calls, initializers, and every statement including
// the entry point's `return x` → store-to-out rewrite.
//
// A frontend supplies a Lang: constant rules (its escape suffix, whether
// int scalars promote to float, its builtin renames, constructor spellings
// and type resolution), and one hook, Own, for the calls, methods, members
// and statements only its language has. It parses its module-level
// declarations (HLSL cbuffers and semantics, WGSL attributes and const,
// MSL structs and [[...]] interfaces) on the shared Parser and drives the
// Binder over them.
package bind

import (
	"fmt"

	"shaderopt/internal/glsl"
	"shaderopt/internal/lex"
	"shaderopt/internal/scope"
	"shaderopt/internal/sem"
)

// Lang is one source language's share of the binding rules.
type Lang struct {
	// Suffix escapes spellings that are unsafe in GLSL ("_h", "_w", "_m"),
	// so provenance stays visible in generated sources.
	Suffix string
	// Promote applies the implicit scalar int→float conversion wherever a
	// float is expected (HLSL and MSL); WGSL converts nothing implicitly.
	Promote bool
	// Renames maps builtin spellings onto the canonical library's names.
	Renames map[string]string
	// Ctor maps a constructor spelling to its GLSL constructor name.
	Ctor func(callee string) (string, bool)
	// Resolve maps a type reference onto the sem type system.
	Resolve func(*TypeExpr) (sem.Type, error)
	// SamplerUse is the error for a sampler binding used as a value; it
	// takes the sampler's name.
	SamplerUse string
	// DeclWords prefix a local's name in its declaration errors, indexed
	// by DeclStmt.Const (WGSL's "var "/"let "; empty for C-style
	// declarations).
	DeclWords [2]string
	// FnWord names a helper function in its errors ("function", "fn").
	FnWord string
	// NoTextureParams rejects texture parameters on helpers (MSL).
	NoTextureParams bool
	// Own translates what only this language has.
	Own Own
	// OwnCalls are the call names Own claims. A helper cannot take one:
	// its calls would reach Own first and never the helper.
	OwnCalls map[string]bool
}

// Own is a frontend's hook for the constructs only its language has. The
// Binder offers it every statement, and every identifier, call, method
// call and member expression, before translating the node itself; it
// reports false to leave the node to the Binder.
type Own interface {
	OwnStmt(s Stmt) ([]glsl.Stmt, bool, error)
	OwnExpr(e Expr) (glsl.Expr, sem.Type, bool, error)
}

// Binder carries the binding state of one module translation.
type Binder struct {
	lang Lang

	// Sh is the canonical shader under construction.
	Sh *glsl.Shader
	// FnRet holds each helper function's return type, by GLSL name.
	FnRet map[string]sem.Type
	// Samplers holds the separate sampler-state bindings by source name;
	// they collapse into combined GLSL samplers and may only appear as a
	// sampling call's argument.
	Samplers map[string]bool
	// CurRet is the declared return type of the function being translated.
	CurRet sem.Type

	scopes *scope.Table[Binding]
	names  namer
	out    *string // entry output variable while translating the entry body
}

// New returns a Binder for one module translation with lang's rules. The
// module scope is open and "main" is reserved.
func New(lang Lang) *Binder {
	b := &Binder{
		lang:     lang,
		Sh:       &glsl.Shader{Version: "330"},
		FnRet:    map[string]sem.Type{},
		Samplers: map[string]bool{},
		names:    namer{suffix: lang.Suffix, renames: map[string]string{}, taken: map[string]bool{}},
		scopes:   valueTables.Get(),
	}
	b.names.taken["main"] = true
	b.Push()
	return b
}

// valueTables holds released binders' value-scope tables.
var valueTables scope.Pool[Binding]

// Release hands the Binder's scope table to the next New. The Binder
// must not be used afterwards; the shader it built stays valid.
func (b *Binder) Release() {
	valueTables.Put(b.scopes)
	b.scopes = nil
}

// Errf formats a positioned translation error.
func Errf(p lex.Pos, format string, args ...any) error {
	return fmt.Errorf("%s: %s", p, fmt.Sprintf(format, args...))
}

// --- scopes ---

// Binding pairs an identifier's sanitized GLSL spelling with its type.
type Binding struct {
	Name string // GLSL spelling
	T    sem.Type
}

// Push opens a value scope.
func (b *Binder) Push() { b.scopes.Push() }

// Pop closes the innermost value scope.
func (b *Binder) Pop() { b.scopes.Pop() }

// Bind records a value binding in the innermost scope. Scopes are keyed
// by the ORIGINAL source name with the GLSL spelling riding along, so
// shadowing resolves by source semantics and two identifiers whose
// sanitized spellings would collide can never alias each other.
func (b *Binder) Bind(orig, glslName string, t sem.Type) {
	b.scopes.Bind(orig, Binding{Name: glslName, T: t})
}

// Lookup resolves an original source name innermost-first.
func (b *Binder) Lookup(orig string) (Binding, bool) { return b.scopes.Lookup(orig) }

// --- names ---

// namer hands out GLSL-safe spellings for one module translation: every
// identifier must steer clear of GLSL keywords, type names, builtin
// functions, and every other module-scope spelling.
type namer struct {
	suffix  string
	renames map[string]string
	taken   map[string]bool
}

// unsafe reports whether a spelling cannot be emitted as-is.
func (n *namer) unsafe(name string) bool {
	return glsl.IsKeyword(name) || glsl.IsTypeName(name) || sem.IsBuiltin(name) || n.taken[name]
}

// Rename maps a source identifier to a GLSL-safe module-scope spelling,
// memoized so every mention of the identifier gets the same answer, and
// reserves the result.
func (b *Binder) Rename(name string) string {
	n := &b.names
	if nn, ok := n.renames[name]; ok {
		return nn
	}
	nn := name
	for n.unsafe(nn) {
		nn += n.suffix
	}
	n.renames[name] = nn
	n.taken[nn] = true
	return nn
}

// Fresh reserves a GLSL-safe module-scope name for a synthesized
// variable. It bypasses the rename map: a user identifier that happens to
// share the base name keeps its own slot and the synthesized variable
// moves aside.
func (b *Binder) Fresh(base string) string {
	n := &b.names
	nn := base
	for n.unsafe(nn) {
		nn += n.suffix
	}
	n.taken[nn] = true
	return nn
}

// Local keeps a function-local identifier GLSL-safe and clear of every
// module-level spelling, without reserving it (locals in sibling scopes
// may share a spelling; GLSL shadowing handles nesting). Steering clear
// of taken names matters for correctness, not just hygiene: the entry
// return desugars into an assignment to the synthesized out variable by
// name, so a local that kept a colliding spelling (e.g. one literally
// named fragColor) would capture that store and the shader would
// silently output nothing.
func (b *Binder) Local(name string) string {
	for b.names.unsafe(name) {
		name += b.names.suffix
	}
	return name
}

// --- types ---

// SemToSpec renders a sem type as a GLSL syntactic type reference for the
// canonical AST: the single sem→GLSL type spelling of every translating
// frontend, so the generated texts' type vocabulary is identical by
// construction.
func SemToSpec(t sem.Type) (glsl.TypeSpec, error) {
	if t.IsArray() {
		elem, err := SemToSpec(t.Elem())
		if err != nil {
			return glsl.TypeSpec{}, err
		}
		elem.ArrayLen = t.ArrayLen
		return elem, nil
	}
	name := ""
	switch {
	case t.IsSampler():
		name = "sampler" + t.Dim.String()
	case t.IsMatrix():
		name = fmt.Sprintf("mat%d", t.Mat)
	case t.IsVector():
		switch t.Kind {
		case sem.KindFloat:
			name = fmt.Sprintf("vec%d", t.Vec)
		case sem.KindInt:
			name = fmt.Sprintf("ivec%d", t.Vec)
		case sem.KindBool:
			name = fmt.Sprintf("bvec%d", t.Vec)
		}
	case t.IsScalar():
		switch t.Kind {
		case sem.KindFloat:
			name = "float"
		case sem.KindInt:
			name = "int"
		case sem.KindBool:
			name = "bool"
		}
	}
	if name == "" {
		return glsl.TypeSpec{}, fmt.Errorf("type %s has no GLSL equivalent", t)
	}
	return glsl.Scalar(name), nil
}

// VecName resolves the C-style vector names HLSL and MSL share: floatN,
// halfN, intN, uintN and boolN.
func VecName(name string) (n int, kind sem.Kind, ok bool) {
	base := ""
	switch {
	case len(name) == 6 && name[:5] == "float":
		base, n = "float", int(name[5]-'0')
	case len(name) == 5 && name[:4] == "half":
		base, n = "half", int(name[4]-'0')
	case len(name) == 4 && name[:3] == "int":
		base, n = "int", int(name[3]-'0')
	case len(name) == 5 && name[:4] == "uint":
		base, n = "uint", int(name[4]-'0')
	case len(name) == 5 && name[:4] == "bool":
		base, n = "bool", int(name[4]-'0')
	default:
		return 0, 0, false
	}
	if n < 2 || n > 4 {
		return 0, 0, false
	}
	switch base {
	case "float", "half":
		return n, sem.KindFloat, true
	case "int", "uint":
		return n, sem.KindInt, true
	default:
		return n, sem.KindBool, true
	}
}

// MatName resolves the C-style floatNxN / halfNxN matrix names to the
// square dimension; non-square matrices are outside the subset.
func MatName(name string) (int, bool) {
	var base string
	switch {
	case len(name) == 8 && name[:5] == "float":
		base = name[5:]
	case len(name) == 7 && name[:4] == "half":
		base = name[4:]
	default:
		return 0, false
	}
	if len(base) != 3 || base[1] != 'x' {
		return 0, false
	}
	n, m := int(base[0]-'0'), int(base[2]-'0')
	if n < 2 || n > 4 || n != m {
		return 0, false
	}
	return n, true
}

// CtorName maps a C-style vector or matrix constructor spelling (float4,
// int3, float3x3, ...) to its GLSL constructor name.
func CtorName(callee string) (string, bool) {
	if n, kind, ok := VecName(callee); ok {
		switch kind {
		case sem.KindFloat:
			return fmt.Sprintf("vec%d", n), true
		case sem.KindInt:
			return fmt.Sprintf("ivec%d", n), true
		default:
			return fmt.Sprintf("bvec%d", n), true
		}
	}
	if n, ok := MatName(callee); ok {
		return fmt.Sprintf("mat%d", n), true
	}
	return "", false
}
