package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"slices"
	"sync"

	"shaderopt/internal/glslgen"
	"shaderopt/internal/ir"
	"shaderopt/internal/passes"
	"shaderopt/internal/telemetry"
)

// The exhaustive flag enumeration is the hot path of a cold sweep: naively
// it is 256 × (clone + flagged passes + codegen) per shader, even though
// the 2^8 combinations share long pass prefixes and "most of the flags do
// not alter the source code" (Fig. 4c). enumerateFromIR instead organizes
// the combinations as a binary trie over the fixed pass order
// (passes.FlaggedSteps): depth d decides whether step d runs, so every
// combination is a root-to-leaf path and combinations that agree on the
// first d steps share one node — one intermediate IR, computed once.
//
// Two properties collapse the trie into a small DAG:
//
//   - the "off" edge is free: skipping a pass leaves the IR untouched, so
//     the off-child IS the parent node;
//   - nodes are keyed by an IR fingerprint (hash of the printed program),
//     so when a pass does not change the program — or two different
//     prefixes converge to the same IR — the paths merge and all
//     downstream work is shared.
//
// Each distinct intermediate IR therefore has each step applied to it
// exactly once, and codegen runs once per distinct leaf instead of once
// per combination. The walk is level-synchronous, which makes it
// shardable: within a level every pending step application is independent,
// so they fan out across the worker pool; merging is sequential and
// ordered, keeping the result deterministic and byte-identical to the
// clone-per-combination reference in internal/oracle (pinned by
// TestMemoizedEnumerationMatchesLegacy).

// enumNode is one distinct intermediate IR state in the enumeration DAG.
// Nodes are immutable after creation: step application and leaf codegen
// always work on clones.
type enumNode struct {
	prog *ir.Program
	fp   string
	// cfp is the canonical (alpha-renamed) fingerprint — the key of the
	// cross-shader SharedTrie. Populated eagerly on every node when the
	// walk runs with a shared table, empty otherwise.
	cfp string
}

// irFingerprint keys DAG nodes by program identity. The printed form
// includes instruction IDs, which Clone and every structural pass keep
// dense and deterministic, so equal fingerprints mean structurally
// identical programs — reusing a memoized step result for them is sound.
// The print streams straight into the hash through a small buffer, so
// fingerprinting never materializes the program text.
func irFingerprint(p *ir.Program) string {
	h := sha256.New()
	bw := bufio.NewWriterSize(h, 1<<12)
	p.Print(bw)
	bw.Flush()
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// FingerprintIR is the program-identity fingerprint the enumeration DAG
// merges nodes by, exported for the session measurement pipeline: equal
// fingerprints mean structurally identical programs, so a driver compile
// of one is a sound stand-in for a driver compile of the other (the
// vendor pipeline and cost model are pure functions of the program).
func FingerprintIR(p *ir.Program) string { return irFingerprint(p) }

// FingerprintCanonical is the name-insensitive program identity: the
// hash of the alpha-renamed canonical print (ir.Program.PrintAlpha), in
// which identifier spellings and ID numbering are canonicalized away and
// only structure remains. Driver compiles and cost models are pure
// functions of structure (isa.Analyze never reads a name), so
// alpha-equivalent programs — e.g. structurally identical shaders
// lowered from different frontends — may soundly share one compiled
// artefact under this key. Enumeration keeps merging by FingerprintIR:
// its leaves become generated *text*, where spelling matters.
func FingerprintCanonical(p *ir.Program) string {
	h := sha256.New()
	bw := bufio.NewWriterSize(h, 1<<12)
	p.PrintAlpha(bw)
	bw.Flush()
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// enumerateFromIR runs the exhaustive flag enumeration from an already
// lowered base program, sharding the trie walk across `workers`
// goroutines (<= 1 runs inline). The result is independent of the worker
// count and byte-identical to the clone-per-combination reference
// (internal/oracle). reg, when non-nil, receives an "enumerate" span
// plus the walk's structural counters — distinct nodes, step
// applications, no-op subtree collapses, and fingerprint merges — which
// together say how hard the DAG collapse worked for this shader;
// instrumentation never influences the walk.
// shared, when non-nil, is the cross-shader node table the walk consults
// before running a pass and feeds with what it computes (see SharedTrie);
// the variant set stays byte-identical to a private walk either way.
func enumerateFromIR(reg *telemetry.Registry, base *ir.Program, name string, workers int, shared *SharedTrie) *VariantSet {
	span := reg.StartSpan("enumerate", "enum").Arg("shader", name).Arg("workers", workers)
	defer span.End()
	var stepsApplied, collapses, merges, nodes int64

	pre := base.Clone()
	passes.Prepare(pre)
	root := &enumNode{prog: pre, fp: irFingerprint(pre)}
	if shared != nil {
		root.cfp = FingerprintCanonical(pre)
	}
	nodes++ // the root is the first distinct IR state

	combos := passes.AllCombinations()
	// assign tracks, per combination, the DAG node holding its IR after
	// the steps processed so far. Everyone starts at the shared root.
	assign := make([]*enumNode, len(combos))
	for i := range assign {
		assign[i] = root
	}

	for stepIdx, st := range passes.FlaggedSteps() {
		// Distinct live parents, in first-use (ascending combination)
		// order so the merge below is deterministic.
		parents := distinctNodes(assign)

		// Fan the step applications out across the pool: each distinct
		// parent IR has this step applied to it exactly once — or, with a
		// shared table, skipped as a no-op another shader's walk recorded.
		children := make([]*enumNode, len(parents))
		parallelFor(workers, len(parents), func(i int) {
			if shared != nil {
				children[i] = shared.apply(parents[i], stepIdx, st)
			} else {
				children[i] = applyStep(parents[i], st)
			}
		})
		stepsApplied += int64(len(parents))

		// Merge by fingerprint: a child that lands on an existing node's
		// state (typically its own parent, when the pass was a no-op)
		// joins that node and shares all downstream work.
		byFP := make(map[string]*enumNode, 2*len(parents))
		for _, par := range parents {
			byFP[par.fp] = par
		}
		onChild := make(map[*enumNode]*enumNode, len(parents))
		for i, par := range parents {
			ch := children[i]
			if ch == par {
				// No-op pass: the whole subtree collapses onto the parent.
				collapses++
			} else if existing, ok := byFP[ch.fp]; ok {
				// Convergent prefix: a different path already produced this
				// IR state; share all downstream work with it.
				merges++
				ch = existing
			} else {
				byFP[ch.fp] = ch
				nodes++
			}
			onChild[par] = ch
		}
		for ci, flags := range combos {
			if flags.Has(st.Flag) {
				assign[ci] = onChild[assign[ci]]
			}
		}
	}

	// Codegen once per distinct leaf. Clone renumbers IDs in program
	// order (the same normalization RunFlagged ends with), so the printed
	// source is byte-identical to the monolithic path.
	leaves := distinctNodes(assign)
	outs := make([]string, len(leaves))
	parallelFor(workers, len(leaves), func(i int) {
		final := leaves[i].prog.CloneScratch()
		passes.Finish(final)
		outs[i] = glslgen.Generate(final, glslgen.Desktop)
		final.Release()
	})
	outOf := make(map[*enumNode]string, len(leaves))
	hashOf := make(map[*enumNode]string, len(leaves))
	for i, leaf := range leaves {
		outOf[leaf] = outs[i]
		hashOf[leaf] = HashSource(outs[i])
	}

	// The structural counters are accumulated locally and published once:
	// the hot loop pays no atomic traffic, and a nil registry costs only
	// these adds.
	reg.Counter("enum.runs").Inc()
	reg.Counter("enum.nodes").Add(nodes)
	reg.Counter("enum.steps").Add(stepsApplied)
	reg.Counter("enum.collapses").Add(collapses)
	reg.Counter("enum.merges").Add(merges)
	reg.Counter("enum.leaves").Add(int64(len(leaves)))

	// Assemble exactly like the reference: walk combinations in
	// ascending order, deduplicating by generated-source hash (distinct
	// leaf IRs can still print identical source). Hashes were computed
	// once per leaf above — hashing per combination would redo each
	// leaf's digest dozens of times.
	vs := &VariantSet{Name: name, ByFlags: make(map[Flags]*Variant, len(combos))}
	byHash := map[string]*Variant{}
	for ci, flags := range combos {
		leaf := assign[ci]
		h := hashOf[leaf]
		v, ok := byHash[h]
		if !ok {
			v = &Variant{Source: outOf[leaf], Hash: h}
			byHash[h] = v
			vs.Variants = append(vs.Variants, v)
		}
		v.FlagSets = append(v.FlagSets, flags)
		vs.ByFlags[flags] = v
	}
	reg.Counter("enum.variants").Add(int64(vs.Unique()))
	return vs
}

// applyStep computes a node's on-child: the step applied to a clone of
// the node's IR. When the step turns out to be a no-op the parent is
// returned directly, merging the subtrees, and the clone's storage goes
// to the next step's clone.
func applyStep(parent *enumNode, st passes.Step) *enumNode {
	p := parent.prog.CloneScratch()
	st.Run(p)
	fp := irFingerprint(p)
	if fp == parent.fp {
		p.Release()
		return parent
	}
	return &enumNode{prog: p, fp: fp}
}

// distinctNodes returns the unique nodes of an assignment in first-seen
// order (ascending combination order, so results are deterministic). A
// step has a handful of distinct nodes, so a scan of those found so far
// is cheaper than a set sized for every combination.
func distinctNodes(assign []*enumNode) []*enumNode {
	var out []*enumNode
	for _, n := range assign {
		if !slices.Contains(out, n) {
			out = append(out, n)
		}
	}
	return out
}

// parallelFor runs fn(0..n-1) across at most `workers` goroutines,
// inline when the pool is trivial or the work is a single item. A panic
// in fn is re-raised on the calling goroutine once every worker has
// stopped, so the caller's recover sees it instead of the process dying.
func parallelFor(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	var panicVal any // the first worker panic; recover never yields nil
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					next = n // stop the other workers claiming more
					mu.Unlock()
				}
			}()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
