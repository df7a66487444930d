package core

import (
	"fmt"
	"sync"

	"shaderopt/internal/ir"
	"shaderopt/internal/lru"
	"shaderopt/internal/passes"
	"shaderopt/internal/telemetry"
)

// The enumeration trie of one shader never leaves its handle, but the
// transform work inside it is not shader-specific: übershader families
// specialized from one source (the corpus tonemap family and its
// hand-ported HLSL twins) walk through alpha-equivalent intermediate IRs
// at every trie node, redoing each other's pass applications. SharedTrie
// is the cross-shader node table that stops that: entries are keyed by
// (step index, canonical IR fingerprint of the parent), so when shader B
// reaches an intermediate IR that shader A already pushed through step k,
// B adopts A's recorded outcome instead of cloning and re-running the
// pass.
//
// Sharing stays strictly at the transform level. Each shader still owns
// its trie, its variant texts, and its measurement seeds; the table only
// short-circuits how a node's on-child is obtained, and the resulting
// VariantSet is byte-identical to a private walk (pinned corpus-wide by
// TestSharedEnumerationMatchesPrivate). Three outcomes are shared, in
// decreasing strength:
//
//   - exact adoption: the entry's parent has the same spelling-sensitive
//     fingerprint (which covers identifier names and the program name),
//     so the stored child IS this parent's child, adopted wholesale —
//     sound for every step;
//   - no-op adoption: for name-blind steps, a pass that left an
//     alpha-equivalent program unchanged leaves this one unchanged too
//     (firing decisions are structural), so the subtree collapses onto
//     the parent without running the pass;
//   - rename transport: for name-blind steps that did fire, the stored
//     child equals this parent's child up to the positional renaming of
//     interface slots, so ir.CloneRemapped rebuilds it by substituting
//     A's uniforms/inputs/vars with B's — one clone instead of a pass
//     run. A transport that meets a pass-synthesized slot bails to a
//     private recompute (strict substitution).
//
// The one name-sensitive step (Hoist; see passes.Step.NameBlind) only
// participates in exact adoption. All methods are safe for concurrent
// use; the table is LRU-bounded so a long-lived daemon's memory stays
// flat.

// sharedTrieBound is the shared table's entry bound: roomy enough for
// the distinct (step, parent) states of a corpus-scale sweep (a shader
// contributes at most steps × nodes ≈ tens of entries) while bounding a
// daemon that sees unbounded corpora.
const sharedTrieBound = 4096

// TriePersist is the optional persistent layer under a SharedTrie
// (implemented by the search session over internal/store). Only the
// name-insensitive half of an entry persists — the no-op bit and the
// child's canonical fingerprint — because IR pointers do not survive a
// process, and only name-blind steps consult it. A persisted no-op is a
// full hit (the pass is skipped outright); a persisted non-no-op only
// saves the child's canonical-fingerprint computation.
type TriePersist interface {
	GetNode(key string) (noop bool, childCFP string, ok bool)
	PutNode(key string, noop bool, childCFP string)
}

// sharedKey identifies one trie transition: which flagged step, applied
// to which alpha-equivalence class of parent IR.
type sharedKey struct {
	step int
	cfp  string
}

// sharedEntry is one recorded transition outcome. Entries are immutable
// once published; the child program and the parent's slot lists belong
// to the producing shader's trie nodes, never mutated (step application
// and codegen always clone), so sharing the pointers across shaders is
// sound.
type sharedEntry struct {
	// noop records that the step left the parent unchanged
	// (spelling-sensitive print preserved). No-op entries carry no
	// programs.
	noop bool
	// parentFP and version identify the exact producing parent for
	// whole-node adoption: the spelling-sensitive fingerprint and the
	// source #version (which the fingerprint does not cover).
	parentFP string
	version  string
	// uniforms, inputs and vars are the producing parent's interface
	// slots, all a transport reads of it, so the entry keeps none of the
	// parent's instructions. child is the transition's result, and
	// childFP and childCFP are its two fingerprints.
	uniforms, inputs []*ir.Global
	vars             []*ir.Var
	child            *ir.Program
	childFP          string
	childCFP         string
}

// SharedTrie is the cross-shader trie-node table. Create with
// NewSharedTrie, optionally attach telemetry (Instrument) and a
// persistent layer (SetPersist), and hand it to enumeration via
// Shader.VariantsSharedT — or let a search.Session own one.
type SharedTrie struct {
	table *lru.Cache[sharedKey, *sharedEntry]

	mu      sync.Mutex
	persist TriePersist
	hits    *telemetry.Counter
	misses  *telemetry.Counter
}

// NewSharedTrie creates an empty shared table, LRU-bounded to
// sharedTrieBound entries.
func NewSharedTrie() *SharedTrie {
	return &SharedTrie{table: lru.New[sharedKey, *sharedEntry](sharedTrieBound)}
}

// Instrument attaches the table's hit/miss sinks (conventionally the
// enum.shared.{hits,misses} registry counters). A hit is a transition the
// table answered — adoption, collapse, or transport — and a miss is one
// the walk had to compute privately. Either counter may be nil.
func (t *SharedTrie) Instrument(hits, misses *telemetry.Counter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hits, t.misses = hits, misses
}

// SetPersist attaches the persistent node layer consulted on memory
// misses and fed on publishes. Passing nil detaches it.
func (t *SharedTrie) SetPersist(p TriePersist) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.persist = p
}

// Len returns the number of resident entries.
func (t *SharedTrie) Len() int { return t.table.Len() }

func (t *SharedTrie) sinks() (TriePersist, *telemetry.Counter, *telemetry.Counter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.persist, t.hits, t.misses
}

// persistKey renders a transition's store key component. The step index
// and flag bit are both included so a reordered or renumbered pipeline
// can never resurrect a stale entry under a new meaning.
func persistKey(stepIdx int, st passes.Step, cfp string) string {
	return fmt.Sprintf("%d:%d\x00%s", stepIdx, st.Flag, cfp)
}

// apply computes parent's on-child for one flagged step through the
// shared table: adopt, collapse, or transport on a usable entry; fall
// back to a private applyStep (publishing the outcome) otherwise.
func (t *SharedTrie) apply(parent *enumNode, stepIdx int, st passes.Step) *enumNode {
	persist, hits, misses := t.sinks()
	key := sharedKey{step: stepIdx, cfp: parent.cfp}

	if e, ok := t.table.Get(key); ok {
		if child := adoptEntry(parent, st, e); child != nil {
			hits.Inc()
			return child
		}
		// Unusable entry (name-sensitive step under foreign spellings, or
		// a transport that met a synthesized slot): recompute privately.
		// A name-blind child still shares the entry's alpha class, so its
		// canonical fingerprint carries over without a PrintAlpha pass.
		knownCFP := ""
		if st.NameBlind {
			if e.noop {
				knownCFP = parent.cfp
			} else {
				knownCFP = e.childCFP
			}
		}
		misses.Inc()
		return applyStepCFP(parent, st, knownCFP)
	}

	if st.NameBlind && persist != nil {
		if noop, childCFP, ok := persist.GetNode(persistKey(stepIdx, st, parent.cfp)); ok {
			if noop {
				// A persisted no-op is a full hit: the pass is skipped and
				// the subtree collapses, exactly as with a memory entry.
				t.table.Add(key, &sharedEntry{noop: true, parentFP: parent.fp, version: parent.prog.Version}, 1)
				hits.Inc()
				return parent
			}
			// Persisted non-no-op: the pass still runs (no IR survives the
			// store), but the child's canonical fingerprint is known.
			child := applyStepCFP(parent, st, childCFP)
			t.publish(key, stepIdx, st, parent, child, nil)
			misses.Inc()
			return child
		}
	}

	child := applyStepCFP(parent, st, "")
	t.publish(key, stepIdx, st, parent, child, persist)
	misses.Inc()
	return child
}

// adoptEntry returns the node a usable entry yields for this parent, or
// nil when the entry cannot answer soundly and the caller must compute.
func adoptEntry(parent *enumNode, st passes.Step, e *sharedEntry) *enumNode {
	if e.parentFP == parent.fp {
		// Identical spelling-sensitive print: the stored outcome is this
		// parent's outcome verbatim — sound for every step. Child adoption
		// additionally needs the #version to match (the print omits it,
		// and the child program carries the producer's); a mismatch falls
		// through to the name-blind paths, which rebuild under B's
		// version.
		if e.noop {
			return parent
		}
		if e.version == parent.prog.Version {
			return &enumNode{prog: e.child, fp: e.childFP, cfp: e.childCFP}
		}
	}
	if !st.NameBlind {
		return nil
	}
	if e.noop {
		// Name-blind firing is structural: unchanged on an
		// alpha-equivalent program means unchanged here.
		return parent
	}
	return transport(parent, e)
}

// transport rebuilds a recorded child for an alpha-equivalent parent by
// positionally renaming interface slots: alpha equivalence means the two
// parents declare the same uniforms, inputs, and vars in the same order
// (only spellings differ), so A's i-th slot maps onto B's i-th slot and
// the child clones across under strict substitution. Returns nil when
// the clone meets a slot outside the maps (pass-synthesized), in which
// case the caller recomputes.
func transport(parent *enumNode, e *sharedEntry) *enumNode {
	dst := parent.prog
	if len(e.uniforms) != len(dst.Uniforms) || len(e.inputs) != len(dst.Inputs) || len(e.vars) != len(dst.Vars) {
		return nil // unreachable for alpha-equivalent parents; bail defensively
	}
	globals := make(map[*ir.Global]*ir.Global, len(e.uniforms)+len(e.inputs))
	for i, g := range e.uniforms {
		globals[g] = dst.Uniforms[i]
	}
	for i, g := range e.inputs {
		globals[g] = dst.Inputs[i]
	}
	vars := make(map[*ir.Var]*ir.Var, len(e.vars))
	for i, v := range e.vars {
		vars[v] = dst.Vars[i]
	}
	prog, ok := e.child.CloneRemapped(globals, vars)
	if !ok {
		return nil
	}
	prog.Name, prog.Version = dst.Name, dst.Version
	return &enumNode{prog: prog, fp: irFingerprint(prog), cfp: e.childCFP}
}

// publish records a privately computed transition so later shaders (and,
// through persist, later processes) can share it.
func (t *SharedTrie) publish(key sharedKey, stepIdx int, st passes.Step, parent, child *enumNode, persist TriePersist) {
	e := &sharedEntry{parentFP: parent.fp, version: parent.prog.Version}
	childCFP := parent.cfp
	if child != parent {
		// The entry outlives this walk: keep the child without the bulk
		// of the instructions the pass dropped. The node is not yet
		// visible to any other walk, and a step leaves dense IDs, so the
		// compacted clone prints as the fingerprinted program did.
		child.prog = child.prog.Compacted()
		e.uniforms, e.inputs, e.vars = parent.prog.Uniforms, parent.prog.Inputs, parent.prog.Vars
		e.child = child.prog
		e.childFP = child.fp
		e.childCFP = child.cfp
		childCFP = child.cfp
	} else {
		e.noop = true
	}
	t.table.Add(key, e, 1)
	if persist != nil && st.NameBlind {
		persist.PutNode(persistKey(stepIdx, st, parent.cfp), e.noop, childCFP)
	}
}

// applyStepCFP is applyStep for the shared walk: the child leaves with
// its canonical fingerprint populated — adopted from knownCFP when the
// caller already knows the child's alpha class, computed otherwise.
func applyStepCFP(parent *enumNode, st passes.Step, knownCFP string) *enumNode {
	child := applyStep(parent, st)
	if child == parent {
		return parent
	}
	if knownCFP != "" {
		child.cfp = knownCFP
	} else {
		child.cfp = FingerprintCanonical(child.prog)
	}
	return child
}
