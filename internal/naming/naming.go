// Package naming owns the identifier-sanitizing state shared by the
// non-GLSL frontends. WGSL and HLSL both translate into the checked
// GLSL AST, so every identifier they emit must steer clear of GLSL
// keywords, type names, builtin functions, and every other module-scope
// spelling; each frontend tags its escapes with its own suffix ("_w",
// "_h") so provenance stays visible in generated sources.
//
// The package also provides the canonical value-scope representation:
// a Scopes stack keyed by the ORIGINAL source name, with the sanitized
// GLSL spelling riding along in each Binding. Keying by original name
// makes shadowing resolve by source semantics, and two identifiers
// whose sanitized spellings would collide can never alias each other.
package naming

import (
	"fmt"

	"shaderopt/internal/glsl"
	"shaderopt/internal/sem"
)

// SemToSpec renders a sem type as a GLSL syntactic type reference for
// the canonical AST. It is the single sem→GLSL type spelling used by
// every translating frontend (WGSL, HLSL); living here rather than in
// each frontend keeps the generated texts' type vocabulary identical by
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

// Namer hands out GLSL-safe spellings for one module translation. The
// zero value is not usable; construct with New.
type Namer struct {
	suffix  string
	renames map[string]string
	taken   map[string]bool
}

// New returns a Namer that escapes unsafe spellings by appending suffix
// until they are free.
func New(suffix string) *Namer {
	return &Namer{
		suffix:  suffix,
		renames: map[string]string{},
		taken:   map[string]bool{},
	}
}

// unsafe reports whether a spelling cannot be emitted as-is: it would
// collide with a GLSL keyword, type name, builtin function, or a name
// already used at module scope.
func (n *Namer) unsafe(name string) bool {
	return glsl.IsKeyword(name) || glsl.IsTypeName(name) || sem.IsBuiltin(name) || n.taken[name]
}

// Reserve marks a spelling as used at module scope without renaming
// anything (e.g. the generated "main").
func (n *Namer) Reserve(name string) { n.taken[name] = true }

// Rename maps a source identifier to a GLSL-safe module-scope spelling,
// memoized so every mention of the identifier gets the same answer, and
// reserves the result.
func (n *Namer) Rename(name string) string {
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

// Renamed reports the memoized module-scope rename of a source
// identifier, if Rename has been called for it.
func (n *Namer) Renamed(name string) (string, bool) {
	nn, ok := n.renames[name]
	return nn, ok
}

// Fresh reserves a GLSL-safe module-scope name for a synthesized
// variable. It bypasses the rename map: a user identifier that happens
// to share the base name keeps its own slot and the synthesized
// variable moves aside.
func (n *Namer) Fresh(base string) string {
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
func (n *Namer) Local(name string) string {
	for n.unsafe(name) {
		name += n.suffix
	}
	return name
}

// Binding pairs an identifier's sanitized GLSL spelling with its type.
type Binding struct {
	Name string // GLSL spelling
	T    sem.Type
}

// Scopes is a lexical value-scope stack keyed by the ORIGINAL source
// name. The zero value is an empty stack ready for Push.
type Scopes struct {
	stack []map[string]Binding
}

// Push opens a scope.
func (s *Scopes) Push() { s.stack = append(s.stack, map[string]Binding{}) }

// Pop closes the innermost scope.
func (s *Scopes) Pop() { s.stack = s.stack[:len(s.stack)-1] }

// Bind records a value binding in the innermost scope.
func (s *Scopes) Bind(orig, glslName string, t sem.Type) {
	s.stack[len(s.stack)-1][orig] = Binding{Name: glslName, T: t}
}

// Lookup resolves an original source name innermost-first.
func (s *Scopes) Lookup(orig string) (Binding, bool) {
	for i := len(s.stack) - 1; i >= 0; i-- {
		if b, ok := s.stack[i][orig]; ok {
			return b, true
		}
	}
	return Binding{}, false
}
