package passes

import "shaderopt/internal/ir"

// Run applies the optimizer with the given flag set: the always-on
// canonicalization pipeline first (constant folding, local CSE, redundant
// load/store elimination — the passes LunarGlass cannot disable, §III-A),
// then the flagged passes in a fixed LunarGlass-like order,
// re-canonicalizing after each structural change. The result is
// deterministic: the same program and flags always produce the same IR.
func Run(p *ir.Program, flags Flags) {
	Prepare(p)
	RunFlagged(p, flags)
}

// Prepare runs the flag-independent prefix of the optimizer: matrix
// scalarization and the first canonicalization fixed point. Every flag
// combination shares this work, so enumeration prepares a program once
// and clones the result per combination. Run == Prepare + RunFlagged.
func Prepare(p *ir.Program) {
	// The offline middle end has no matrix types: scalarization always
	// happens, independent of flags — it is the §III-C(a) codegen artefact
	// all measurements relative to the all-off baseline share.
	ScalarizeMatrices(p)
	Canonicalize(p)
}

// RunFlagged applies the flagged passes to an already-Prepared program:
// the steps of FlaggedSteps in order, for every flag in the set, then a
// final ID renumbering. Incremental pipelines (the memoized variant
// enumeration) replay the same step list one step at a time, so the two
// paths cannot drift.
func RunFlagged(p *ir.Program, flags Flags) {
	for _, st := range flaggedSteps {
		if flags.Has(st.Flag) {
			st.Run(p)
		}
	}
	p.RenumberIDs()
}

// Step is one flagged stage of the optimizer pipeline: the flag that
// enables it and the transformation it applies (the pass itself plus the
// re-canonicalization RunFlagged performs after a structural change).
// Steps are pure functions of the program: the same input program always
// produces the same output program.
type Step struct {
	// Flag is the combination bit that enables this step.
	Flag Flags
	// Run applies the step in place.
	Run func(p *ir.Program)
	// NameBlind reports that the step's output is independent of
	// identifier spellings: running it on two alpha-equivalent programs
	// yields alpha-equivalent results under the same renaming, so a
	// cross-shader enumeration may reuse one program's outcome (a no-op,
	// or the child's canonical fingerprint) for the other. Every step
	// qualifies except Hoist, which orders the select/store pairs it
	// synthesizes by variable name (sortedVarsByName), so its *output*
	// can depend on spellings even though its firing decision is purely
	// structural.
	NameBlind bool
}

// flaggedSteps is the fixed LunarGlass-like pass order. RunFlagged and the
// enumeration trie both execute exactly this list; each entry bundles the
// pass with its conditional re-canonicalization.
var flaggedSteps = []Step{
	{Flag: FlagUnroll, NameBlind: true, Run: func(p *ir.Program) {
		if Unroll(p) {
			Canonicalize(p)
		}
	}},
	// Hoist is the one name-sensitive step: see Step.NameBlind.
	{Flag: FlagHoist, NameBlind: false, Run: func(p *ir.Program) {
		if Hoist(p) {
			Canonicalize(p)
		}
	}},
	{Flag: FlagReassociate, NameBlind: true, Run: func(p *ir.Program) {
		if Reassociate(p) {
			Canonicalize(p)
		}
	}},
	{Flag: FlagDivToMul, NameBlind: true, Run: func(p *ir.Program) {
		if DivToMul(p) {
			Canonicalize(p)
		}
	}},
	{Flag: FlagFPReassociate, NameBlind: true, Run: func(p *ir.Program) {
		FPReassoc(p) // canonicalizes internally per round
	}},
	{Flag: FlagGVN, NameBlind: true, Run: func(p *ir.Program) {
		if GVN(p) {
			Canonicalize(p)
		}
	}},
	{Flag: FlagCoalesce, NameBlind: true, Run: func(p *ir.Program) {
		Coalesce(p) // canonicalizes internally when it fires
	}},
	{Flag: FlagADCE, NameBlind: true, Run: func(p *ir.Program) {
		if ADCE(p) {
			Canonicalize(p)
		}
	}},
}

// FlaggedSteps returns the flagged pipeline stages in execution order.
// Callers must not mutate the returned slice.
func FlaggedSteps() []Step { return flaggedSteps }

// Finish completes a program assembled step by step: the final ID
// renumbering RunFlagged ends with. Apply it to a clone just before
// codegen so printed output is identical to a monolithic Run.
func Finish(p *ir.Program) { p.RenumberIDs() }
