package wgsl

import (
	"fmt"

	"shaderopt/internal/bind"
	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/lower"
)

// Compile parses WGSL source and lowers it to an IR program. The
// module's @fragment entry point becomes the program body; helper
// functions are inlined by the shared lowering, exactly as for GLSL input,
// so every downstream stage (passes, codegen, harness, cost models) is
// frontend-independent.
func Compile(src, name string) (*ir.Program, error) {
	m, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sh, err := Translate(m)
	if err != nil {
		return nil, err
	}
	return lower.Lower(sh, name)
}

// Translate binds a WGSL module and desugars it into the compiler's
// canonical surface form (the checked GLSL AST): entry-point parameters
// become `in` interface globals, the attributed return value becomes an
// `out` global, texture/sampler pairs collapse into combined samplers, and
// WGSL builtins are renamed to their canonical equivalents. Function
// bodies translate through the shared binder with WGSL's rules: no
// implicit conversions, and select, textureSample* and the templated and
// array constructors as WGSL's own calls.
func Translate(m *Module) (*glsl.Shader, error) {
	tr := &translator{}
	tr.Binder = bind.New(bind.Lang{
		Suffix:     "_w",
		Renames:    builtinRenames,
		Ctor:       ctorName,
		Resolve:    resolveType,
		SamplerUse: "sampler %q can only appear as a textureSample argument",
		DeclWords:  [2]string{"var ", "let "},
		FnWord:     "fn",
		Own:        tr,
		OwnCalls:   ownCalls,
	})
	defer tr.Release()
	return tr.module(m)
}

// translator is the WGSL side of one module translation.
type translator struct{ *bind.Binder }

// --- module-scope translation ---

func (tr *translator) module(m *Module) (*glsl.Shader, error) {
	entry := m.EntryPoint()
	if entry == nil {
		return nil, fmt.Errorf("module has no @fragment entry point")
	}

	// Bind helper signatures first, so calls ahead of the declaration and
	// let-inference across functions both resolve.
	var helpers []bind.Helper
	for _, f := range m.Fns() {
		if f != entry {
			helpers = append(helpers, helper(f))
		}
	}
	if err := tr.Signatures(helpers); err != nil {
		return nil, err
	}

	for _, d := range m.Decls {
		var err error
		switch d := d.(type) {
		case *GlobalVar:
			err = tr.globalVar(d)
		case *ConstDecl:
			err = tr.constDecl(d)
		case *FnDecl:
			if d != entry { // the entry translates last, once all globals are bound
				err = tr.Helper(helper(d))
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if err := tr.entryFn(entry); err != nil {
		return nil, err
	}
	return tr.Sh, nil
}

func (tr *translator) globalVar(d *GlobalVar) error {
	if d.Type == nil {
		return bind.Errf(d.Pos, "module-scope var %q needs an explicit type", d.Name)
	}
	if d.Type.Name == "sampler" || d.Type.Name == "sampler_comparison" {
		// Separate sampler state collapses into the combined GLSL sampler;
		// the binding only legalizes textureSample call sites.
		tr.Samplers[d.Name] = true
		return nil
	}
	t, err := resolveType(d.Type)
	if err != nil {
		return bind.Errf(d.Pos, "var %s: %v", d.Name, err)
	}
	spec, err := bind.SemToSpec(t)
	if err != nil {
		return bind.Errf(d.Pos, "var %s: %v", d.Name, err)
	}
	name := tr.Rename(d.Name)
	g := &glsl.GlobalVar{Type: spec, Name: name}
	switch d.AddressSpace {
	case "uniform":
		g.Qual = glsl.QualUniform
	case "", "private":
		if t.IsSampler() {
			g.Qual = glsl.QualUniform // texture binding
			break
		}
		g.Qual = glsl.QualNone
		if d.Init != nil {
			init, _, err := tr.Expr(d.Init)
			if err != nil {
				return err
			}
			g.Init = init
		}
	default:
		return bind.Errf(d.Pos, "address space %q is outside the supported subset", d.AddressSpace)
	}
	if a, ok := FindAttr(d.Attrs, "binding"); ok && len(a.Args) == 1 {
		g.Layout = "binding = " + a.Args[0]
	}
	tr.Sh.Decls = append(tr.Sh.Decls, g)
	tr.Bind(d.Name, name, t)
	return nil
}

func (tr *translator) constDecl(d *ConstDecl) error {
	init, it, err := tr.Expr(d.Init)
	if err != nil {
		return err
	}
	t := it
	if d.Type != nil {
		if t, err = resolveType(d.Type); err != nil {
			return bind.Errf(d.Pos, "const %s: %v", d.Name, err)
		}
	}
	spec, err := bind.SemToSpec(t)
	if err != nil {
		return bind.Errf(d.Pos, "const %s: %v", d.Name, err)
	}
	name := tr.Rename(d.Name)
	tr.Sh.Decls = append(tr.Sh.Decls, &glsl.GlobalVar{
		Qual: glsl.QualConst, Type: spec, Name: name, Init: init,
	})
	tr.Bind(d.Name, name, t)
	return nil
}

// helper describes a non-entry function to the binder.
func helper(f *FnDecl) bind.Helper {
	h := bind.Helper{Pos: f.Pos, Name: f.Name, Ret: f.Ret, Body: f.Body, Params: make([]bind.Param, len(f.Params))}
	for i, p := range f.Params {
		h.Params[i] = bind.Param{Name: p.Name, Type: p.Type}
	}
	return h
}

// entryFn translates the @fragment entry point into void main():
// attributed parameters become `in` globals, the attributed return type
// becomes an `out` global, and valued returns store to it.
func (tr *translator) entryFn(d *FnDecl) error {
	var outVar string
	if d.Ret != nil {
		t, err := resolveType(d.Ret)
		if err != nil {
			return bind.Errf(d.Pos, "entry return: %v", err)
		}
		spec, err := bind.SemToSpec(t)
		if err != nil {
			return bind.Errf(d.Pos, "entry return: %v", err)
		}
		// The synthesized out variable is not a source identifier: reserve
		// a fresh module-level name and keep it out of the value scopes
		// (only the return desugaring refers to it, by this exact
		// spelling — no WGSL expression can name it).
		outVar = tr.Fresh("fragColor")
		g := &glsl.GlobalVar{Qual: glsl.QualOut, Type: spec, Name: outVar}
		if a, ok := FindAttr(d.RetAttrs, "location"); ok && len(a.Args) == 1 {
			g.Layout = "location = " + a.Args[0]
		}
		tr.Sh.Decls = append(tr.Sh.Decls, g)
	}
	tr.Push()
	defer tr.Pop()
	for _, p := range d.Params {
		t, err := resolveType(p.Type)
		if err != nil {
			return bind.Errf(d.Pos, "entry param %s: %v", p.Name, err)
		}
		spec, err := bind.SemToSpec(t)
		if err != nil {
			return bind.Errf(d.Pos, "entry param %s: %v", p.Name, err)
		}
		name := tr.Rename(p.Name)
		g := &glsl.GlobalVar{Qual: glsl.QualIn, Type: spec, Name: name}
		if a, ok := FindAttr(p.Attrs, "location"); ok && len(a.Args) == 1 {
			g.Layout = "location = " + a.Args[0]
		}
		tr.Sh.Decls = append(tr.Sh.Decls, g)
		tr.Bind(p.Name, name, t)
	}
	body, err := tr.Body(d.Body, &outVar)
	if err != nil {
		return fmt.Errorf("entry %s: %w", d.Name, err)
	}
	tr.Sh.Decls = append(tr.Sh.Decls, &glsl.FuncDecl{
		Return: glsl.Scalar("void"), Name: "main", Body: body,
	})
	return nil
}
