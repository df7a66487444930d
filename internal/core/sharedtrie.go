package core

import (
	"fmt"
	"sync"

	"shaderopt/internal/lru"
	"shaderopt/internal/passes"
	"shaderopt/internal/telemetry"
)

// The enumeration trie of one shader never leaves its handle, but most
// of its transitions are not shader-specific: "most of the flags do not
// alter the source code" (Fig. 4c), and übershader families (the corpus
// tonemap family and its hand-ported HLSL twins) walk through
// alpha-equivalent intermediate IRs. SharedTrie is the cross-shader table
// of transition outcomes, keyed by (step index, canonical fingerprint of
// the parent IR). An entry holds two facts and no IR: whether the step
// was a no-op, and the child's canonical fingerprint.
//
// Both facts hold for the whole alpha class of a name-blind step (see
// passes.Step.NameBlind): its firing is structural, so a pass that left
// one alpha-equivalent program unchanged leaves every other unchanged,
// and the children it makes are alpha-equivalent too. A recorded no-op
// is a hit: the subtree collapses onto the parent without running the
// pass. Any other entry still runs the pass but skips the child's
// canonical fingerprint. The name-sensitive step (Hoist) never consults
// the table. The VariantSet stays byte-identical to a private walk
// (pinned by TestSharedEnumerationMatchesPrivate). All methods are safe
// for concurrent use.

// sharedTrieBound is the table's LRU bound: roomy for a corpus-scale
// sweep, while a daemon that sees unbounded corpora stays flat.
const sharedTrieBound = 4096

// TriePersist is the optional persistent layer under a SharedTrie,
// implemented by the search session over internal/store. It holds the
// same two facts as a memory entry, so they outlive the process.
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

// sharedEntry is one transition's outcome. childCFP is the parent's own
// for a no-op.
type sharedEntry struct {
	noop     bool
	childCFP string
}

// SharedTrie is the cross-shader trie-node table. Create with
// NewSharedTrie, optionally attach telemetry (Instrument) and a
// persistent layer (SetPersist), and hand it to enumeration via
// Shader.VariantsSharedT — or let a search.Session own one.
type SharedTrie struct {
	table *lru.Cache[sharedKey, sharedEntry]

	mu      sync.Mutex
	persist TriePersist
	hits    *telemetry.Counter
	misses  *telemetry.Counter
}

// NewSharedTrie creates an empty shared table, LRU-bounded to
// sharedTrieBound entries.
func NewSharedTrie() *SharedTrie {
	return &SharedTrie{table: lru.New[sharedKey, sharedEntry](sharedTrieBound)}
}

// Instrument attaches the table's hit/miss sinks (conventionally the
// enum.shared.{hits,misses} registry counters). A hit is a no-op the
// table answered, so the pass did not run, and a miss is a transition
// the walk had to compute. Either counter may be nil.
func (t *SharedTrie) Instrument(hits, misses *telemetry.Counter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.hits, t.misses = hits, misses
}

// SetPersist attaches the persistent node layer consulted on memory
// misses and fed on first computes. Passing nil detaches it.
func (t *SharedTrie) SetPersist(p TriePersist) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.persist = p
}

// Len returns the number of resident entries.
func (t *SharedTrie) Len() int { return t.table.Len() }

// persistKey renders a transition's store key component. The step index
// and flag bit are both included so a reordered or renumbered pipeline
// can never resurrect a stale entry under a new meaning.
func persistKey(stepIdx int, st passes.Step, cfp string) string {
	return fmt.Sprintf("%d:%d\x00%s", stepIdx, st.Flag, cfp)
}

// apply computes parent's on-child for one flagged step: a recorded
// no-op returns the parent without running the pass; otherwise the pass
// runs, and a first compute is published to memory and persist.
func (t *SharedTrie) apply(parent *enumNode, stepIdx int, st passes.Step) *enumNode {
	t.mu.Lock()
	persist, hits, misses := t.persist, t.hits, t.misses
	t.mu.Unlock()
	if !st.NameBlind {
		misses.Inc()
		return applyStepCFP(parent, st, "")
	}
	key := sharedKey{step: stepIdx, cfp: parent.cfp}
	e, ok := t.table.Get(key)
	if !ok && persist != nil {
		if e.noop, e.childCFP, ok = persist.GetNode(persistKey(stepIdx, st, parent.cfp)); ok {
			t.table.Add(key, e, 1)
		}
	}
	if ok && e.noop {
		hits.Inc()
		return parent
	}
	misses.Inc()
	child := applyStepCFP(parent, st, e.childCFP)
	if !ok {
		e = sharedEntry{noop: child == parent, childCFP: child.cfp}
		t.table.Add(key, e, 1)
		if persist != nil {
			persist.PutNode(persistKey(stepIdx, st, parent.cfp), e.noop, e.childCFP)
		}
	}
	return child
}

// applyStepCFP is applyStep for the shared walk: the child leaves with
// its canonical fingerprint, knownCFP if set, computed otherwise.
func applyStepCFP(parent *enumNode, st passes.Step, knownCFP string) *enumNode {
	child := applyStep(parent, st)
	if child != parent {
		child.cfp = knownCFP
		if child.cfp == "" {
			child.cfp = FingerprintCanonical(child.prog)
		}
	}
	return child
}
