// Package isa lowers IR programs to vendor-neutral instruction statistics:
// dynamic operation counts by execution-resource class, static instruction
// footprint, and a linear-scan register pressure model. The per-vendor cost
// models in internal/gpu convert these statistics into cycle estimates.
package isa

import (
	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// Stats summarizes a compiled shader for cost modelling. "Scalar ops"
// count per-component work (a vec4 add is 4); "vector slots" count
// SIMD-issue slots on 128-bit vector machines (a vec4 add is 1, and a
// lone scalar add also burns 1).
type Stats struct {
	ALUScalarOps float64 // arithmetic, per component
	ALUVecSlots  float64 // arithmetic, per vector issue slot
	SFUScalarOps float64 // transcendental/division, per component
	MovScalarOps float64 // shuffles, constructs, swizzles
	TextureOps   float64 // sampling operations
	VaryingOps   float64 // shader input interpolation reads
	OutputOps    float64 // colour writes
	BranchOps    float64 // dynamic branch/loop-iteration overhead events
	SpillBytes   float64 // dynamic spill traffic (bytes)

	StaticInstrs  int // static instruction count (I-cache footprint)
	PeakRegisters int // peak live scalar registers (4 bytes each)
	UsedUniforms  int // scalar uniform components referenced
}

// Config controls the dynamic-weight analysis.
type Config struct {
	// DynamicLoopIters is the assumed trip count for loops whose bounds are
	// not compile-time constants.
	DynamicLoopIters float64
	// BranchDivergence is the fraction of the not-taken arm that still
	// costs execution time (SIMT divergence / predication): 0 = perfect
	// branching, 1 = both sides always execute.
	BranchDivergence float64
}

// DefaultConfig matches a mid-ground GPU.
var DefaultConfig = Config{DynamicLoopIters: 16, BranchDivergence: 0.5}

// builtinCost gives per-component (alu, sfu) weights for builtins; texture
// and derivative classes are handled separately.
var builtinCost = map[string]struct{ alu, sfu float64 }{
	"abs": {0.5, 0}, "sign": {1, 0}, "floor": {1, 0}, "ceil": {1, 0},
	"fract": {1, 0}, "radians": {1, 0}, "degrees": {1, 0}, "saturate": {0.5, 0},
	"mod": {2, 0}, "min": {1, 0}, "max": {1, 0}, "step": {1, 0},
	"clamp": {2, 0}, "mix": {2, 0}, "smoothstep": {5, 0},
	"reflect": {3, 0}, "refract": {4, 2}, "faceforward": {2, 0},
	"sin": {0, 1}, "cos": {0, 1}, "tan": {0, 2}, "asin": {0, 2}, "acos": {0, 2},
	"atan": {0, 2}, "pow": {0, 2}, "exp": {0, 1}, "log": {0, 1},
	"exp2": {0, 1}, "log2": {0, 1}, "sqrt": {0, 1}, "inversesqrt": {0, 1},
	"normalize": {1, 1}, "dot": {1, 0}, "length": {1, 1}, "distance": {2, 1},
	"cross": {3, 0},
	"dFdx":  {1, 0}, "dFdy": {1, 0}, "fwidth": {2, 0},
}

// Analyze computes instruction statistics for a program.
func Analyze(p *ir.Program, cfg Config) Stats {
	a := &analyzer{cfg: cfg}
	a.block(p.Body, 1)
	s := a.stats
	s.StaticInstrs = staticInstrs(p)
	s.PeakRegisters = peakRegisters(p)
	s.UsedUniforms = usedUniformComponents(p)
	s.VaryingOps = float64(usedInputComponents(p))
	s.OutputOps = float64(writtenOutputs(p))
	return s
}

// writtenOutputs counts output variables stored at least once — each is
// one colour export at fragment end.
func writtenOutputs(p *ir.Program) int {
	seen := map[*ir.Var]bool{}
	p.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpStore && in.Var.IsOutput {
			seen[in.Var] = true
		}
	})
	return len(seen)
}

// usedInputComponents counts scalar input components read at least once —
// the per-fragment interpolation workload.
func usedInputComponents(p *ir.Program) int {
	seen := map[*ir.Global]bool{}
	n := 0
	p.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpInput && !seen[in.Global] {
			seen[in.Global] = true
			n += in.Global.Type.Components()
		}
	})
	return n
}

type analyzer struct {
	cfg   Config
	stats Stats
}

func (a *analyzer) block(b *ir.Block, weight float64) {
	for _, it := range b.Items {
		switch it := it.(type) {
		case *ir.Instr:
			a.instr(it, weight)
		case *ir.If:
			thenCost := measure(a.cfg, it.Then)
			var elseCost Stats
			if it.Else != nil {
				elseCost = measure(a.cfg, it.Else)
			}
			// Heavier side executes; lighter side costs its share scaled by
			// divergence.
			heavy, light := thenCost, elseCost
			if scalarWork(elseCost) > scalarWork(thenCost) {
				heavy, light = elseCost, thenCost
			}
			a.stats.add(heavy, weight)
			a.stats.add(light, weight*a.cfg.BranchDivergence)
			a.stats.BranchOps += weight
		case *ir.Loop:
			iters := a.cfg.DynamicLoopIters
			if n, ok := it.TripCount(); ok {
				iters = float64(n)
			}
			a.stats.BranchOps += weight * (iters + 1)
			a.stats.ALUScalarOps += weight * iters // counter increment
			a.stats.ALUVecSlots += weight * iters
			a.block(it.Body, weight*iters)
		case *ir.While:
			iters := a.cfg.DynamicLoopIters
			a.stats.BranchOps += weight * (iters + 1)
			a.block(it.Cond, weight*(iters+1))
			a.block(it.Body, weight*iters)
		}
	}
}

// measure runs a sub-analysis on a block with weight 1.
func measure(cfg Config, b *ir.Block) Stats {
	sub := &analyzer{cfg: cfg}
	sub.block(b, 1)
	return sub.stats
}

func scalarWork(s Stats) float64 {
	return s.ALUScalarOps + 4*s.SFUScalarOps + 8*s.TextureOps + s.MovScalarOps
}

// add accumulates sub-stats scaled by weight (dynamic fields only).
func (s *Stats) add(o Stats, w float64) {
	s.ALUScalarOps += o.ALUScalarOps * w
	s.ALUVecSlots += o.ALUVecSlots * w
	s.SFUScalarOps += o.SFUScalarOps * w
	s.MovScalarOps += o.MovScalarOps * w
	s.TextureOps += o.TextureOps * w
	s.VaryingOps += o.VaryingOps * w
	s.OutputOps += o.OutputOps * w
	s.BranchOps += o.BranchOps * w
	s.SpillBytes += o.SpillBytes * w
}

func (a *analyzer) instr(in *ir.Instr, w float64) {
	width := float64(in.Type.Components())
	switch in.Op {
	case ir.OpConst, ir.OpUniform, ir.OpInput:
		// Constant-bank reads are free; varying interpolation is counted
		// once per fragment in Analyze, not per read.
	case ir.OpBin:
		if xt, yt := in.Args[0].Type, in.Args[1].Type; xt.IsMatrix() || yt.IsMatrix() {
			// Native matrix algebra: drivers map these to FMA chains.
			n := xt.Mat
			if n == 0 {
				n = yt.Mat
			}
			nn := float64(n * n)
			switch {
			case in.Sym == "*" && xt.IsMatrix() && yt.IsMatrix():
				a.stats.ALUScalarOps += w * nn * float64(n)
				a.stats.ALUVecSlots += w * nn
			case in.Sym == "*" && (xt.IsVector() || yt.IsVector()):
				a.stats.ALUScalarOps += w * nn
				a.stats.ALUVecSlots += w * float64(n)
			default: // mat±mat, mat*scalar, mat/scalar
				a.stats.ALUScalarOps += w * nn
				a.stats.ALUVecSlots += w * float64(n)
			}
			return
		}
		switch in.Sym {
		case "/":
			if in.Type.Kind == sem.KindFloat {
				// rcp per component + multiply.
				a.stats.SFUScalarOps += w * width
				a.stats.ALUScalarOps += w * width
			} else {
				a.stats.SFUScalarOps += w * width * 2
			}
			a.stats.ALUVecSlots += w * 2
		case "%":
			a.stats.SFUScalarOps += w * width * 2
			a.stats.ALUVecSlots += w * 2
		default:
			a.stats.ALUScalarOps += w * width
			a.stats.ALUVecSlots += w
		}
	case ir.OpUn:
		a.stats.ALUScalarOps += w * width * 0.5 // usually folds into modifiers
		a.stats.ALUVecSlots += w * 0.5
	case ir.OpSelect:
		a.stats.ALUScalarOps += w * width
		a.stats.ALUVecSlots += w
	case ir.OpCall:
		cls, _ := sem.BuiltinClassOf(in.Sym)
		switch cls {
		case sem.ClassTexture:
			a.stats.TextureOps += w
		default:
			c, ok := builtinCost[in.Sym]
			if !ok {
				c = struct{ alu, sfu float64 }{1, 0}
			}
			// Reductions (dot/length/...) work over the argument width.
			n := width
			if len(in.Args) > 0 && float64(in.Args[0].Type.Components()) > n {
				n = float64(in.Args[0].Type.Components())
			}
			a.stats.ALUScalarOps += w * c.alu * n
			a.stats.SFUScalarOps += w * c.sfu * n
			a.stats.ALUVecSlots += w * (c.alu + c.sfu)
		}
	case ir.OpConstruct, ir.OpSwizzle, ir.OpInsert, ir.OpInsertDyn,
		ir.OpExtract, ir.OpExtractDyn:
		// Data movement; scalar machines mostly fold these into source
		// modifiers, vector machines pay shuffle slots.
		a.stats.MovScalarOps += w * width * 0.5
	case ir.OpLoad, ir.OpStore:
		// Register-allocated locals: free; spill cost added by the vendor
		// model from PeakRegisters. Colour exports are counted once per
		// written output in Analyze, not per store.
	case ir.OpDiscard:
		a.stats.BranchOps += w
	}
}

// staticInstrs counts instructions that occupy instruction memory.
func staticInstrs(p *ir.Program) int {
	n := 0
	p.Body.WalkInstrs(func(in *ir.Instr) {
		switch in.Op {
		case ir.OpConst, ir.OpUniform:
			return
		}
		n++
	})
	// Region control costs instructions too.
	p.Body.WalkBlocks(func(b *ir.Block) {
		for _, it := range b.Items {
			switch it.(type) {
			case *ir.If, *ir.Loop, *ir.While:
				n += 2
			}
		}
	})
	return n
}

// peakRegisters runs a linear-scan live-interval approximation over the
// flattened program and returns the peak number of simultaneously live
// scalar components (values + variable slots). Positions and last uses
// are tables indexed by instruction ID (IDs are distinct and at most
// p.MaxID()), and the sweep's deltas a table indexed by position.
func peakRegisters(p *ir.Program) int {
	// Assign linear positions.
	pos := make([]int, p.MaxID()+1)
	var order []*ir.Instr
	p.Body.WalkInstrs(func(in *ir.Instr) {
		pos[in.ID] = len(order)
		order = append(order, in)
	})

	// Value intervals: def to last use. A value's last use is after its
	// definition, so 0 means unused.
	lastUse := make([]int, len(pos))
	useAt := func(v *ir.Instr, at int) {
		if at > lastUse[v.ID] {
			lastUse[v.ID] = at
		}
	}
	var regionEnd func(b *ir.Block) int
	regionEnd = func(b *ir.Block) int {
		end := 0
		b.WalkInstrs(func(in *ir.Instr) {
			if pos[in.ID] > end {
				end = pos[in.ID]
			}
		})
		return end
	}
	var walkUses func(b *ir.Block)
	walkUses = func(b *ir.Block) {
		for _, it := range b.Items {
			switch it := it.(type) {
			case *ir.Instr:
				for _, a := range it.Args {
					useAt(a, pos[it.ID])
				}
			case *ir.If:
				useAt(it.Cond, pos[it.Cond.ID]+1)
				end := regionEnd(it.Then)
				if it.Else != nil {
					if e := regionEnd(it.Else); e > end {
						end = e
					}
				}
				useAt(it.Cond, end)
				walkUses(it.Then)
				if it.Else != nil {
					walkUses(it.Else)
				}
			case *ir.Loop:
				end := regionEnd(it.Body)
				useAt(it.Start, end)
				useAt(it.End, end)
				useAt(it.Step, end)
				walkUses(it.Body)
			case *ir.While:
				end := regionEnd(it.Body)
				if e := regionEnd(it.Cond); e > end {
					end = e
				}
				useAt(it.CondVal, end)
				walkUses(it.Cond)
				walkUses(it.Body)
			}
		}
	}
	walkUses(p.Body)

	// The sweep: each interval adds its width at its start and removes it
	// after its end. An end is at most len(order) (an If's condition used
	// just past the last instruction), so end+1 fits.
	deltas := make([]int, len(order)+2)
	interval := func(start, end, width int) {
		deltas[start] += width
		deltas[end+1] -= width
	}
	for _, in := range order {
		end := lastUse[in.ID]
		if end == 0 || !in.HasResult() {
			continue
		}
		w := in.Type.Components()
		if in.Type.IsSampler() {
			w = 0
		}
		if in.Op == ir.OpConst && in.Type.Components() <= 4 {
			// Small immediates rematerialize; don't hold registers.
			continue
		}
		interval(pos[in.ID], end, w)
	}

	// Variable slot intervals: first touch to last touch.
	firstTouch := map[*ir.Var]int{}
	lastTouch := map[*ir.Var]int{}
	p.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op != ir.OpLoad && in.Op != ir.OpStore {
			return
		}
		v := in.Var
		if _, ok := firstTouch[v]; !ok {
			firstTouch[v] = pos[in.ID]
		}
		lastTouch[v] = pos[in.ID]
	})
	for _, v := range p.Vars {
		if f, ok := firstTouch[v]; ok {
			interval(f, lastTouch[v], v.Type.Components())
		}
	}

	peak, cur := 0, 0
	for _, d := range deltas {
		cur += d
		if cur > peak {
			peak = cur
		}
	}
	return peak
}

func usedUniformComponents(p *ir.Program) int {
	seen := map[*ir.Global]bool{}
	n := 0
	p.Body.WalkInstrs(func(in *ir.Instr) {
		if in.Op == ir.OpUniform && !seen[in.Global] {
			seen[in.Global] = true
			if !in.Global.Type.IsSampler() {
				n += in.Global.Type.Components()
			}
		}
	})
	return n
}
