package hlsl

import (
	"fmt"

	"shaderopt/internal/bind"
	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/lower"
)

// Compile parses HLSL source and lowers it to an IR program. The module's
// SV_Target entry point becomes the program body; helper functions are
// inlined by the shared lowering, exactly as for GLSL, WGSL and MSL input,
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

// Translate binds an HLSL module and desugars it into the compiler's
// canonical surface form (the checked GLSL AST): entry-point parameters
// become `in` interface globals, the SV_Target return value becomes an
// `out` global, cbuffer members flatten into loose uniforms,
// Texture2D/SamplerState pairs collapse into combined samplers, and HLSL
// intrinsics are renamed to their canonical equivalents. Function bodies
// translate through the shared binder with HLSL's rules: scalar int→float
// promotion, and mul/mad/fmod/clip and the .Sample methods as HLSL's own
// calls.
func Translate(m *Module) (*glsl.Shader, error) {
	tr := &translator{fmods: map[string]string{}}
	tr.Binder = bind.New(bind.Lang{
		Suffix:     "_h",
		Promote:    true,
		Renames:    intrinsicRenames,
		Ctor:       ctorName,
		Resolve:    resolveType,
		SamplerUse: "sampler state %q can only appear as a .Sample argument",
		FnWord:     "function",
		Own:        tr,
		OwnCalls:   ownCalls,
	})
	defer tr.Release()
	return tr.module(m)
}

// translator is the HLSL side of one module translation: the shared
// binder plus the synthesized fmod helpers.
type translator struct {
	*bind.Binder
	fmods map[string]string // fmod helper name by operand types
}

// --- module-scope translation ---

func (tr *translator) module(m *Module) (*glsl.Shader, error) {
	entry := m.EntryPoint()
	if entry == nil {
		return nil, fmt.Errorf("module has no pixel-shader entry point (SV_Target return semantic or a function named main)")
	}
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
		case *CBufferDecl:
			err = tr.cbuffer(d)
		case *GlobalVar:
			err = tr.globalVar(d)
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

// cbuffer flattens a constant block into individual uniforms — the
// canonical AST models the paper's desktop-GLSL interchange form, where
// study shaders use loose uniforms, and the block structure is only a
// binding-layout detail.
func (tr *translator) cbuffer(d *CBufferDecl) error {
	for _, mem := range d.Members {
		t, err := resolveType(mem.Type)
		if err != nil {
			return bind.Errf(mem.Pos, "cbuffer %s member %s: %v", d.Name, mem.Name, err)
		}
		spec, err := bind.SemToSpec(t)
		if err != nil {
			return bind.Errf(mem.Pos, "cbuffer %s member %s: %v", d.Name, mem.Name, err)
		}
		name := tr.Rename(mem.Name)
		tr.Sh.Decls = append(tr.Sh.Decls, &glsl.GlobalVar{Qual: glsl.QualUniform, Type: spec, Name: name})
		tr.Bind(mem.Name, name, t)
	}
	return nil
}

func (tr *translator) globalVar(d *GlobalVar) error {
	if IsSamplerStateName(d.Type.Name) {
		// Separate sampler state collapses into the combined GLSL sampler;
		// the binding only legalizes .Sample call sites.
		tr.Samplers[d.Name] = true
		return nil
	}
	t, err := resolveType(d.Type)
	if err != nil {
		return bind.Errf(d.Pos, "global %s: %v", d.Name, err)
	}
	spec, err := bind.SemToSpec(t)
	if err != nil {
		return bind.Errf(d.Pos, "global %s: %v", d.Name, err)
	}
	name := tr.Rename(d.Name)
	g := &glsl.GlobalVar{Type: spec, Name: name}
	switch {
	case !d.Static:
		// Loose globals are $Globals constant-buffer members: uniforms.
		if d.Init != nil && !d.Const {
			return bind.Errf(d.Pos, "global %s: an initialized global must be static (uniforms have no defaults in the subset)", d.Name)
		}
		if d.Init != nil {
			g.Qual = glsl.QualConst
		} else {
			g.Qual = glsl.QualUniform
		}
	case d.Const:
		g.Qual = glsl.QualConst
		if d.Init == nil {
			return bind.Errf(d.Pos, "static const %s needs an initializer", d.Name)
		}
	default:
		g.Qual = glsl.QualNone
	}
	if d.Init != nil {
		init, it, err := tr.Initializer(d.Init, t)
		if err != nil {
			return err
		}
		if !it.Equal(t) {
			return bind.Errf(d.Pos, "cannot initialize %s %s with %s", t, d.Name, it)
		}
		g.Init = init
	}
	if t.IsSampler() {
		g.Qual = glsl.QualUniform // texture binding
	}
	tr.Sh.Decls = append(tr.Sh.Decls, g)
	tr.Bind(d.Name, name, t)
	return nil
}

// helper describes a non-entry function to the binder: a void return is
// none, and out and inout parameters are outside the subset.
func helper(f *FnDecl) bind.Helper {
	h := bind.Helper{Pos: f.Pos, Name: f.Name, Ret: f.Ret, Body: f.Body, Params: make([]bind.Param, len(f.Params))}
	if f.Ret != nil && f.Ret.Name == "void" {
		h.Ret = nil
	}
	for i, p := range f.Params {
		h.Params[i] = bind.Param{Name: p.Name, Type: p.Type}
		if p.Qual == "out" || p.Qual == "inout" {
			h.Params[i].Illegal = p.Qual + " parameters are outside the supported subset"
		}
	}
	return h
}

// entryFn translates the pixel-shader entry point into void main():
// semantic-annotated parameters become `in` globals and the SV_Target
// return value becomes an `out` global that valued returns store to.
func (tr *translator) entryFn(d *FnDecl) error {
	if d.Ret == nil || d.Ret.Name == "void" {
		return bind.Errf(d.Pos, "entry point %s must return the SV_Target color", d.Name)
	}
	t, err := resolveType(d.Ret)
	if err != nil {
		return bind.Errf(d.Pos, "entry return: %v", err)
	}
	spec, err := bind.SemToSpec(t)
	if err != nil {
		return bind.Errf(d.Pos, "entry return: %v", err)
	}
	// The synthesized out variable is not a source identifier: reserve a
	// fresh module-level name and keep it out of the value scopes (only
	// the return desugaring refers to it, by this exact spelling).
	outVar := tr.Fresh("fragColor")
	tr.Sh.Decls = append(tr.Sh.Decls, &glsl.GlobalVar{Qual: glsl.QualOut, Type: spec, Name: outVar})
	tr.CurRet = t

	tr.Push()
	defer tr.Pop()
	for _, p := range d.Params {
		if p.Qual == "out" || p.Qual == "inout" {
			return bind.Errf(d.Pos, "entry %s parameters are outside the supported subset (return the SV_Target value)", p.Qual)
		}
		t, err := resolveType(p.Type)
		if err != nil {
			return bind.Errf(d.Pos, "entry param %s: %v", p.Name, err)
		}
		spec, err := bind.SemToSpec(t)
		if err != nil {
			return bind.Errf(d.Pos, "entry param %s: %v", p.Name, err)
		}
		// Entry parameters become module-level `in` globals in the
		// generated GLSL, but in HLSL they shadow module names — so the
		// global gets a fresh non-colliding spelling while the binding
		// stays keyed by the parameter's own name.
		name := tr.Fresh(p.Name)
		tr.Sh.Decls = append(tr.Sh.Decls, &glsl.GlobalVar{Qual: glsl.QualIn, Type: spec, Name: name})
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
