package msl

import (
	"fmt"

	"shaderopt/internal/bind"
	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/lower"
	"shaderopt/internal/sem"
)

// Compile parses MSL source and lowers it to an IR program. The fragment
// entry point becomes the program body; helper functions are inlined by
// the shared lowering, exactly as for GLSL, WGSL, and HLSL input, so every
// downstream stage is frontend-independent.
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

// Translate binds an MSL module and desugars it into the compiler's
// canonical surface form (the checked GLSL AST). The [[stage_in]] struct
// flattens into `in` interface globals, the constant buffer struct into
// loose uniforms, texture/sampler argument pairs collapse into combined
// samplers, the entry return value (scalar or output struct) becomes
// `out` globals, and MSL intrinsic spellings (rsqrt, atan2, dfdx, the
// glsl_ helper names) rename to their canonical equivalents. Function
// bodies translate through the shared binder with MSL's rules: scalar
// int→float promotion, and the texture methods, discard_fragment,
// interface-struct members and output-struct stores as MSL's own.
func Translate(m *Module) (*glsl.Shader, error) {
	tr := &translator{
		structs:   map[string]*StructDecl{},
		instances: map[string]map[string]bind.Binding{},
		outInsts:  map[string]bool{},
		outFields: map[string]string{},
	}
	tr.Binder = bind.New(bind.Lang{
		Suffix:          "_m",
		Promote:         true,
		Renames:         intrinsicRenames,
		Ctor:            ctorName,
		Resolve:         resolveType,
		SamplerUse:      "sampler %q can only appear as a .sample argument",
		FnWord:          "function",
		NoTextureParams: true,
		Own:             tr,
		OwnCalls:        ownCalls,
	})
	defer tr.Release()
	return tr.module(m)
}

// translator is the MSL side of one module translation: the shared
// binder plus the struct interfaces.
type translator struct {
	*bind.Binder
	structs map[string]*StructDecl

	// instances maps a struct-typed interface parameter (the stage_in and
	// buffer arguments) to its field bindings: `in.uv` resolves through
	// here to the flattened interface global.
	instances map[string]map[string]bind.Binding

	// Output-struct state for a multi-output entry: retStruct names the
	// declared return struct, outFields maps its field names to the
	// synthesized out globals, outInsts tracks locals declared with the
	// struct type (their member stores assign the out globals directly and
	// returning one desugars to a bare return).
	retStruct string
	outFields map[string]string
	outInsts  map[string]bool
}

// --- module-scope translation ---

func (tr *translator) module(m *Module) (*glsl.Shader, error) {
	for _, st := range m.Structs() {
		tr.structs[st.Name] = st
	}
	entry := m.EntryPoint()
	if entry == nil {
		return nil, fmt.Errorf("module has no fragment entry point")
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

// globalVar translates a module-scope `constant` definition into a const
// global.
func (tr *translator) globalVar(d *GlobalVar) error {
	t, err := resolveType(d.Type)
	if err != nil {
		return bind.Errf(d.Pos, "constant %s: %v", d.Name, err)
	}
	if d.Init == nil {
		return bind.Errf(d.Pos, "constant %s needs an initializer", d.Name)
	}
	spec, err := bind.SemToSpec(t)
	if err != nil {
		return bind.Errf(d.Pos, "constant %s: %v", d.Name, err)
	}
	init, it, err := tr.Initializer(d.Init, t)
	if err != nil {
		return err
	}
	init, it = tr.Promote(init, it, t)
	if !it.Equal(t) {
		return bind.Errf(d.Pos, "cannot initialize %s %s with %s", t, d.Name, it)
	}
	name := tr.Rename(d.Name)
	tr.Sh.Decls = append(tr.Sh.Decls, &glsl.GlobalVar{Qual: glsl.QualConst, Type: spec, Name: name, Init: init})
	tr.Bind(d.Name, name, t)
	return nil
}

// helper describes a non-entry function to the binder: a void return is
// none, and address-space, reference and attributed parameters are only
// legal on the entry point.
func helper(f *FnDecl) bind.Helper {
	h := bind.Helper{Pos: f.Pos, Name: f.Name, Ret: f.Ret, Body: f.Body, Params: make([]bind.Param, len(f.Params))}
	if f.Ret != nil && f.Ret.Name == "void" {
		h.Ret = nil
	}
	for i, p := range f.Params {
		h.Params[i] = bind.Param{Name: p.Name, Type: p.Type}
		if p.Space != "" || p.Ref || p.Attr.Name != "" {
			h.Params[i].Illegal = "qualified parameters are only legal on the entry point"
		}
	}
	return h
}

// entryFn translates the fragment entry point into void main(). The
// stage_in struct parameter flattens into `in` globals, the constant
// buffer into uniforms, texture/sampler pairs into combined samplers, and
// the return value (direct or via the output struct) into `out` globals.
func (tr *translator) entryFn(d *FnDecl) error {
	entryOut := ""
	if d.Ret == nil || d.Ret.Name == "void" {
		return bind.Errf(d.Pos, "entry point %s must return the fragment color", d.Name)
	}
	if st, ok := tr.structs[d.Ret.Name]; ok {
		// Multi-output entry: the return struct's [[color(i)]] members
		// become out globals in declaration order.
		tr.retStruct = st.Name
		for _, f := range st.Fields {
			t, err := resolveType(f.Type)
			if err != nil {
				return bind.Errf(st.Pos, "output %s.%s: %v", st.Name, f.Name, err)
			}
			spec, err := bind.SemToSpec(t)
			if err != nil {
				return bind.Errf(st.Pos, "output %s.%s: %v", st.Name, f.Name, err)
			}
			name := tr.Rename(f.Name)
			tr.Sh.Decls = append(tr.Sh.Decls, &glsl.GlobalVar{Qual: glsl.QualOut, Type: spec, Name: name})
			tr.outFields[f.Name] = name
		}
		tr.CurRet = sem.Void
	} else {
		t, err := resolveType(d.Ret)
		if err != nil {
			return bind.Errf(d.Pos, "entry return: %v", err)
		}
		spec, err := bind.SemToSpec(t)
		if err != nil {
			return bind.Errf(d.Pos, "entry return: %v", err)
		}
		entryOut = tr.Fresh("fragColor")
		tr.Sh.Decls = append(tr.Sh.Decls, &glsl.GlobalVar{Qual: glsl.QualOut, Type: spec, Name: entryOut})
		tr.CurRet = t
	}

	tr.Push()
	defer tr.Pop()
	for _, p := range d.Params {
		if err := tr.entryParam(d, p); err != nil {
			return err
		}
	}
	body, err := tr.Body(d.Body, &entryOut)
	if err != nil {
		return fmt.Errorf("entry %s: %w", d.Name, err)
	}
	tr.Sh.Decls = append(tr.Sh.Decls, &glsl.FuncDecl{
		Return: glsl.Scalar("void"), Name: "main", Body: body,
	})
	return nil
}

func (tr *translator) entryParam(d *FnDecl, p Param) error {
	switch {
	case p.Attr.Name == "stage_in":
		st, ok := tr.structs[p.Type.Name]
		if !ok {
			return bind.Errf(d.Pos, "stage_in parameter %s: unknown struct %q", p.Name, p.Type.Name)
		}
		fields := map[string]bind.Binding{}
		for _, f := range st.Fields {
			t, err := resolveType(f.Type)
			if err != nil {
				return bind.Errf(st.Pos, "input %s.%s: %v", st.Name, f.Name, err)
			}
			spec, err := bind.SemToSpec(t)
			if err != nil {
				return bind.Errf(st.Pos, "input %s.%s: %v", st.Name, f.Name, err)
			}
			name := tr.Rename(f.Name)
			tr.Sh.Decls = append(tr.Sh.Decls, &glsl.GlobalVar{Qual: glsl.QualIn, Type: spec, Name: name})
			fields[f.Name] = bind.Binding{Name: name, T: t}
		}
		tr.instances[p.Name] = fields
		return nil
	case p.Space == "constant" && p.Ref:
		st, ok := tr.structs[p.Type.Name]
		if !ok {
			return bind.Errf(d.Pos, "buffer parameter %s: unknown struct %q", p.Name, p.Type.Name)
		}
		fields := map[string]bind.Binding{}
		for _, f := range st.Fields {
			t, err := resolveType(f.Type)
			if err != nil {
				return bind.Errf(st.Pos, "uniform %s.%s: %v", st.Name, f.Name, err)
			}
			spec, err := bind.SemToSpec(t)
			if err != nil {
				return bind.Errf(st.Pos, "uniform %s.%s: %v", st.Name, f.Name, err)
			}
			name := tr.Rename(f.Name)
			tr.Sh.Decls = append(tr.Sh.Decls, &glsl.GlobalVar{Qual: glsl.QualUniform, Type: spec, Name: name})
			fields[f.Name] = bind.Binding{Name: name, T: t}
		}
		tr.instances[p.Name] = fields
		return nil
	case p.Type.Name == "sampler":
		// Separate sampler state collapses into the combined GLSL sampler;
		// the binding only legalizes .sample call sites.
		tr.Samplers[p.Name] = true
		return nil
	}
	t, err := resolveType(p.Type)
	if err != nil {
		return bind.Errf(d.Pos, "entry param %s: %v", p.Name, err)
	}
	if !t.IsSampler() {
		return bind.Errf(d.Pos, "entry param %s: plain value parameters are outside the supported subset", p.Name)
	}
	spec, err := bind.SemToSpec(t)
	if err != nil {
		return bind.Errf(d.Pos, "entry param %s: %v", p.Name, err)
	}
	name := tr.Rename(p.Name)
	tr.Sh.Decls = append(tr.Sh.Decls, &glsl.GlobalVar{Qual: glsl.QualUniform, Type: spec, Name: name})
	tr.Bind(p.Name, name, t)
	return nil
}
