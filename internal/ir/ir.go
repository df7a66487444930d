// Package ir defines the optimizer's intermediate representation: a typed
// value DAG inside structured control flow, in the style of LunarGlass's
// LLVM-based middle end but with the structure the GLSL backend needs
// preserved. Cross-region dataflow goes through mutable Var slots with
// explicit Load/Store (the LLVM-alloca analog); straight-line dataflow is
// pure SSA-style instruction references.
package ir

import (
	"fmt"

	"shaderopt/internal/sem"
)

// Op is an instruction opcode.
type Op int

// Opcodes.
const (
	OpConst      Op = iota // materialize ConstVal
	OpUniform              // read a uniform (Global)
	OpInput                // read a shader input (Global)
	OpBin                  // binary operator; both operands have equal types
	OpUn                   // unary operator: "-" or "!"
	OpCall                 // builtin function call
	OpConstruct            // build vector/matrix/array from components
	OpExtract              // constant-index extract: vec→scalar, mat→column, array→elem
	OpExtractDyn           // dynamic-index extract (args: agg, int index)
	OpSwizzle              // vector swizzle (width ≥ 2 result)
	OpInsert               // constant-index insert (args: agg, elem) → new agg
	OpInsertDyn            // dynamic-index insert (args: agg, index, elem)
	OpSelect               // args: bool cond, a, b
	OpLoad                 // read a Var
	OpStore                // args: value; writes a Var; produces no value
	OpDiscard              // abandon fragment
)

var opNames = [...]string{
	OpConst: "const", OpUniform: "uniform", OpInput: "input", OpBin: "bin",
	OpUn: "un", OpCall: "call", OpConstruct: "construct", OpExtract: "extract",
	OpExtractDyn: "extractdyn", OpSwizzle: "swizzle", OpInsert: "insert",
	OpInsertDyn: "insertdyn", OpSelect: "select", OpLoad: "load",
	OpStore: "store", OpDiscard: "discard",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Global is a read-only interface variable: a uniform or shader input.
type Global struct {
	Name string
	Type sem.Type
}

// Var is a mutable slot: a local variable, loop counter, or shader output.
type Var struct {
	Name     string
	Type     sem.Type
	IsOutput bool
}

// Instr is an instruction. Instructions are identified by pointer; ID is a
// stable ordinal for printing and deterministic iteration.
//
// Instructions live in their program's chunks (Program.NewInstr), so the
// layout is kept to 144 bytes: the operator, unary operator and callee
// share Sym, which the opcode disambiguates.
type Instr struct {
	ID   int
	Op   Op
	Type sem.Type // result type; Void for store/discard
	Args []*Instr

	Sym     string    // OpBin: operator; OpUn: "-" or "!"; OpCall: builtin name
	Index   int       // OpExtract / OpInsert
	Indices []int     // OpSwizzle; replaced, never written in place
	Var     *Var      // OpLoad / OpStore
	Global  *Global   // OpUniform / OpInput
	Const   *ConstVal // OpConst
}

// HasResult reports whether the instruction produces a value.
func (in *Instr) HasResult() bool { return in.Op != OpStore && in.Op != OpDiscard }

// IsPure reports whether the instruction can be removed when unused and
// merged with identical instructions. Texture sampling and derivatives are
// deterministic within a fragment, so calls are pure here; only memory and
// control effects are impure.
func (in *Instr) IsPure() bool {
	switch in.Op {
	case OpStore, OpDiscard, OpLoad:
		return false
	}
	return true
}

// ConstVal is a compile-time constant: scalar, vector, matrix
// (column-major), or array (element-major). Exactly one payload slice is
// non-nil, selected by Kind.
//
// A ConstVal is immutable once built: nothing writes its Kind or payload
// afterwards, and a fold that changes a constant builds a new one (Eval*
// return fresh values; EvalInsert edits its own Clone). So instructions
// may share one, and the cloners give a copy its source's ConstVal.
type ConstVal struct {
	Kind sem.Kind
	F    []float64
	I    []int64
	B    []bool
}

// Len returns the number of scalar components.
func (c *ConstVal) Len() int {
	switch c.Kind {
	case sem.KindFloat:
		return len(c.F)
	case sem.KindInt:
		return len(c.I)
	case sem.KindBool:
		return len(c.B)
	}
	return 0
}

// Clone returns a deep copy.
func (c *ConstVal) Clone() *ConstVal {
	out := &ConstVal{Kind: c.Kind}
	out.F = append([]float64(nil), c.F...)
	out.I = append([]int64(nil), c.I...)
	out.B = append([]bool(nil), c.B...)
	return out
}

// Equal reports bitwise equality of two constants.
func (c *ConstVal) Equal(o *ConstVal) bool {
	if c.Kind != o.Kind || c.Len() != o.Len() {
		return false
	}
	switch c.Kind {
	case sem.KindFloat:
		for i := range c.F {
			if c.F[i] != o.F[i] {
				return false
			}
		}
	case sem.KindInt:
		for i := range c.I {
			if c.I[i] != o.I[i] {
				return false
			}
		}
	case sem.KindBool:
		for i := range c.B {
			if c.B[i] != o.B[i] {
				return false
			}
		}
	}
	return true
}

// Float returns component i as a float64.
func (c *ConstVal) Float(i int) float64 {
	switch c.Kind {
	case sem.KindFloat:
		return c.F[i]
	case sem.KindInt:
		return float64(c.I[i])
	case sem.KindBool:
		if c.B[i] {
			return 1
		}
		return 0
	}
	return 0
}

// Int returns component i as an int64.
func (c *ConstVal) Int(i int) int64 {
	switch c.Kind {
	case sem.KindInt:
		return c.I[i]
	case sem.KindFloat:
		return int64(c.F[i])
	case sem.KindBool:
		if c.B[i] {
			return 1
		}
		return 0
	}
	return 0
}

// AllEqual reports whether every component equals the scalar value v
// (float constants only).
func (c *ConstVal) AllEqual(v float64) bool {
	if c.Kind != sem.KindFloat || len(c.F) == 0 {
		return false
	}
	for _, f := range c.F {
		if f != v {
			return false
		}
	}
	return true
}

// IsSplat reports whether all components are identical.
func (c *ConstVal) IsSplat() bool {
	n := c.Len()
	if n <= 1 {
		return true
	}
	for i := 1; i < n; i++ {
		switch c.Kind {
		case sem.KindFloat:
			if c.F[i] != c.F[0] {
				return false
			}
		case sem.KindInt:
			if c.I[i] != c.I[0] {
				return false
			}
		case sem.KindBool:
			if c.B[i] != c.B[0] {
				return false
			}
		}
	}
	return true
}

// FloatConst builds a float constant from components.
func FloatConst(vals ...float64) *ConstVal {
	return &ConstVal{Kind: sem.KindFloat, F: append([]float64(nil), vals...)}
}

// SplatFloat builds an n-wide float constant with every component v.
func SplatFloat(v float64, n int) *ConstVal {
	f := make([]float64, n)
	for i := range f {
		f[i] = v
	}
	return &ConstVal{Kind: sem.KindFloat, F: f}
}

// IntConst builds an int constant.
func IntConst(vals ...int64) *ConstVal {
	return &ConstVal{Kind: sem.KindInt, I: append([]int64(nil), vals...)}
}

// BoolConst builds a bool constant.
func BoolConst(vals ...bool) *ConstVal {
	return &ConstVal{Kind: sem.KindBool, B: append([]bool(nil), vals...)}
}
