// Package exec executes IR programs: a functional interpreter (used for
// optimizer correctness testing and image rendering) and texture samplers,
// including the harness's default "colourfully-patterned opaque" procedural
// texture (§IV-B).
package exec

import (
	"errors"
	"fmt"

	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// Sampler provides texel data for texture builtins.
type Sampler interface {
	// Sample returns RGBA at the given coordinates (2 for 2D, 3 for cube)
	// and explicit LOD (negative for automatic).
	Sample(coords []float64, lod float64) [4]float64
}

// Env supplies runtime inputs for one shader invocation.
type Env struct {
	Uniforms map[string]*ir.ConstVal
	Inputs   map[string]*ir.ConstVal
	Samplers map[string]Sampler
	// MaxSteps bounds execution; 0 means the default (10M).
	MaxSteps int
}

// Result holds the outputs of one invocation.
type Result struct {
	Outputs   map[string]*ir.ConstVal
	Discarded bool
	Steps     int
}

// errDiscard unwinds execution on discard.
var errDiscard = errors.New("discard")

// errStepLimit aborts runaway loops.
var errStepLimit = errors.New("step limit exceeded")

// Run interprets the program under env.
func Run(p *ir.Program, env *Env) (*Result, error) {
	maxSteps := env.MaxSteps
	if maxSteps == 0 {
		maxSteps = 10_000_000
	}
	it := &interp{
		p:        p,
		env:      env,
		values:   make(map[*ir.Instr]*ir.ConstVal),
		vars:     make(map[*ir.Var]*ir.ConstVal),
		maxSteps: maxSteps,
	}
	// Default-initialize vars to zero (defensive; well-formed shaders store
	// before loading).
	for _, v := range p.Vars {
		it.vars[v] = zeroValue(v.Type)
	}
	err := it.block(p.Body)
	res := &Result{Outputs: map[string]*ir.ConstVal{}, Steps: it.steps}
	if errors.Is(err, errDiscard) {
		res.Discarded = true
		err = nil
	}
	if err != nil {
		return nil, err
	}
	for _, out := range p.Outputs {
		res.Outputs[out.Name] = it.vars[out]
	}
	return res, nil
}

type interp struct {
	p        *ir.Program
	env      *Env
	values   map[*ir.Instr]*ir.ConstVal
	vars     map[*ir.Var]*ir.ConstVal
	steps    int
	maxSteps int
}

func zeroValue(t sem.Type) *ir.ConstVal {
	n := t.Components()
	switch t.Kind {
	case sem.KindInt:
		return &ir.ConstVal{Kind: sem.KindInt, I: make([]int64, n)}
	case sem.KindBool:
		return &ir.ConstVal{Kind: sem.KindBool, B: make([]bool, n)}
	default:
		return &ir.ConstVal{Kind: sem.KindFloat, F: make([]float64, n)}
	}
}

func (it *interp) block(b *ir.Block) error {
	for _, item := range b.Items {
		switch item := item.(type) {
		case *ir.Instr:
			if err := it.instr(item); err != nil {
				return err
			}
		case *ir.If:
			c := it.values[item.Cond]
			if c == nil {
				return fmt.Errorf("if condition %%%d unevaluated", item.Cond.ID)
			}
			if c.B[0] {
				if err := it.block(item.Then); err != nil {
					return err
				}
			} else if item.Else != nil {
				if err := it.block(item.Else); err != nil {
					return err
				}
			}
		case *ir.Loop:
			start := it.values[item.Start].Int(0)
			end := it.values[item.End].Int(0)
			step := it.values[item.Step].Int(0)
			if step <= 0 {
				return fmt.Errorf("non-positive loop step %d", step)
			}
			for i := start; i < end; i += step {
				it.vars[item.Counter] = ir.IntConst(i)
				if err := it.block(item.Body); err != nil {
					return err
				}
			}
		case *ir.While:
			guard := item.MaxIter
			if guard <= 0 {
				guard = 4096
			}
			for iter := 0; ; iter++ {
				if iter >= guard {
					return fmt.Errorf("while loop exceeded %d iterations", guard)
				}
				if err := it.block(item.Cond); err != nil {
					return err
				}
				if !it.values[item.CondVal].B[0] {
					break
				}
				if err := it.block(item.Body); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (it *interp) instr(in *ir.Instr) error {
	it.steps++
	if it.steps > it.maxSteps {
		return errStepLimit
	}
	arg := func(i int) *ir.ConstVal { return it.values[in.Args[i]] }
	switch in.Op {
	case ir.OpConst:
		it.values[in] = in.Const
	case ir.OpUniform:
		v, ok := it.env.Uniforms[in.Global.Name]
		if !ok {
			if in.Global.Type.IsSampler() {
				// Sampler uniforms carry no value; texture calls resolve the
				// sampler by global name.
				it.values[in] = ir.IntConst(0)
				return nil
			}
			return fmt.Errorf("uniform %q not provided", in.Global.Name)
		}
		it.values[in] = v
	case ir.OpInput:
		v, ok := it.env.Inputs[in.Global.Name]
		if !ok {
			return fmt.Errorf("input %q not provided", in.Global.Name)
		}
		it.values[in] = v
	case ir.OpBin:
		r, ok := ir.EvalBinTyped(in.Sym, in.Args[0].Type, in.Args[1].Type, arg(0), arg(1))
		if !ok {
			return fmt.Errorf("%%%d: cannot evaluate %q on %s", in.ID, in.Sym, arg(0))
		}
		it.values[in] = r
	case ir.OpUn:
		r, ok := ir.EvalUn(in.Sym, arg(0))
		if !ok {
			return fmt.Errorf("%%%d: cannot evaluate unary %q", in.ID, in.Sym)
		}
		it.values[in] = r
	case ir.OpCall:
		return it.call(in)
	case ir.OpConstruct:
		args := make([]*ir.ConstVal, len(in.Args))
		for i := range in.Args {
			args[i] = arg(i)
		}
		it.values[in] = ir.EvalConstruct(in.Type, args)
	case ir.OpExtract:
		it.values[in] = ir.EvalExtract(in.Args[0].Type, arg(0), in.Index)
	case ir.OpExtractDyn:
		idx := int(arg(1).Int(0))
		n := aggLen(in.Args[0].Type)
		if idx < 0 || idx >= n {
			idx = clamp(idx, 0, n-1) // GLSL out-of-bounds: robust access
		}
		it.values[in] = ir.EvalExtract(in.Args[0].Type, arg(0), idx)
	case ir.OpSwizzle:
		it.values[in] = ir.EvalSwizzle(arg(0), in.Indices)
	case ir.OpInsert:
		it.values[in] = ir.EvalInsert(in.Args[0].Type, arg(0), arg(1), in.Index)
	case ir.OpInsertDyn:
		idx := int(arg(1).Int(0))
		n := aggLen(in.Args[0].Type)
		idx = clamp(idx, 0, n-1)
		it.values[in] = ir.EvalInsert(in.Args[0].Type, arg(0), arg(2), idx)
	case ir.OpSelect:
		if arg(0).B[0] {
			it.values[in] = arg(1)
		} else {
			it.values[in] = arg(2)
		}
	case ir.OpLoad:
		v, ok := it.vars[in.Var]
		if !ok {
			return fmt.Errorf("load of uninitialized var %q", in.Var.Name)
		}
		it.values[in] = v
	case ir.OpStore:
		it.vars[in.Var] = arg(0)
	case ir.OpDiscard:
		return errDiscard
	default:
		return fmt.Errorf("unknown op %v", in.Op)
	}
	return nil
}

func aggLen(t sem.Type) int {
	switch {
	case t.IsArray():
		return t.ArrayLen
	case t.IsMatrix():
		return t.Mat
	default:
		return t.Vec
	}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (it *interp) call(in *ir.Instr) error {
	switch in.Sym {
	case "texture", "texture2D", "textureCube", "textureLod", "texelFetch":
		sampName := ""
		if in.Args[0].Op == ir.OpUniform {
			sampName = in.Args[0].Global.Name
		}
		s := it.env.Samplers[sampName]
		if s == nil {
			s = DefaultSampler{}
		}
		coordsVal := it.values[in.Args[1]]
		coords := make([]float64, coordsVal.Len())
		for i := range coords {
			coords[i] = coordsVal.Float(i)
		}
		lod := -1.0
		if len(in.Args) == 3 {
			lod = it.values[in.Args[2]].Float(0)
		}
		rgba := s.Sample(coords, lod)
		it.values[in] = ir.FloatConst(rgba[0], rgba[1], rgba[2], rgba[3])
		return nil
	case "dFdx", "dFdy", "fwidth":
		// Constant harness inputs have zero screen-space derivatives.
		n := in.Type.Components()
		it.values[in] = &ir.ConstVal{Kind: sem.KindFloat, F: make([]float64, n)}
		return nil
	}
	args := make([]*ir.ConstVal, len(in.Args))
	for i := range in.Args {
		args[i] = it.values[in.Args[i]]
	}
	r, ok := ir.EvalBuiltin(in.Sym, args)
	if !ok {
		return fmt.Errorf("%%%d: cannot evaluate builtin %q", in.ID, in.Sym)
	}
	it.values[in] = r
	return nil
}
