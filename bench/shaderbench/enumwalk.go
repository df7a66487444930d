package main

import (
	"shaderopt/internal/core"
	"shaderopt/internal/glslgen"
	"shaderopt/internal/ir"
	"shaderopt/internal/passes"
)

// walkNode is one distinct intermediate IR of the enumeration trie.
type walkNode struct {
	prog *ir.Program
	fp   string
}

// walkVariant is one distinct generated text and the flag sets producing it.
type walkVariant struct {
	hash     string
	flagSets []core.Flags
}

// enumWalk is the enumeration's trie walk rebuilt serially from public
// calls, so its parts time apart: Prepare, each flagged step (clone plus
// pass), the spelling-sensitive fingerprint that merges nodes, the
// canonical fingerprint a shared walk computes for every new node, and
// leaf codegen. It returns the variants in the enumeration's order and the
// number of step applications.
func (rp *replay) enumWalk(h *core.Shader) ([]walkVariant, int64) {
	var root walkNode
	rp.span("passes.prepare", func() {
		root.prog = h.IR()
		passes.Prepare(root.prog)
	})
	rp.span("core.fingerprint_ir", func() { root.fp = core.FingerprintIR(root.prog) })
	rp.span("core.fingerprint_canonical_enum", func() { core.FingerprintCanonical(root.prog) })

	combos := passes.AllCombinations()
	assign := make([]*walkNode, len(combos))
	for i := range assign {
		assign[i] = &root
	}
	var steps int64
	for _, st := range passes.FlaggedSteps() {
		parents := distinctWalkNodes(assign)
		steps += int64(len(parents))
		byFP := make(map[string]*walkNode, 2*len(parents))
		for _, par := range parents {
			byFP[par.fp] = par
		}
		onChild := make(map[*walkNode]*walkNode, len(parents))
		name := "passes." + passes.FlagName(st.Flag)
		for _, par := range parents {
			ch := &walkNode{}
			rp.span(name, func() {
				ch.prog = par.prog.Clone()
				st.Run(ch.prog)
			})
			rp.span("core.fingerprint_ir", func() { ch.fp = core.FingerprintIR(ch.prog) })
			if existing, ok := byFP[ch.fp]; ok {
				ch = existing // a no-op step or a convergent prefix
			} else {
				rp.span("core.fingerprint_canonical_enum", func() { core.FingerprintCanonical(ch.prog) })
				byFP[ch.fp] = ch
			}
			onChild[par] = ch
		}
		for ci, flags := range combos {
			if flags.Has(st.Flag) {
				assign[ci] = onChild[assign[ci]]
			}
		}
	}

	hashOf := map[*walkNode]string{}
	for _, leaf := range distinctWalkNodes(assign) {
		rp.span("glslgen.generate", func() {
			final := leaf.prog.Clone()
			passes.Finish(final)
			hashOf[leaf] = core.HashSource(glslgen.Generate(final, glslgen.Desktop))
		})
	}
	var out []walkVariant
	index := map[string]int{}
	for ci, flags := range combos {
		h := hashOf[assign[ci]]
		i, ok := index[h]
		if !ok {
			i = len(out)
			index[h] = i
			out = append(out, walkVariant{hash: h})
		}
		out[i].flagSets = append(out[i].flagSets, flags)
	}
	return out, steps
}

// distinctWalkNodes returns the unique nodes in first-seen order.
func distinctWalkNodes(assign []*walkNode) []*walkNode {
	seen := make(map[*walkNode]bool, len(assign))
	var out []*walkNode
	for _, n := range assign {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// sameVariants reports whether a walk produced exactly the enumeration's
// variant set: the same texts in the same order, from the same flag sets.
func sameVariants(walk []walkVariant, vs *core.VariantSet) bool {
	if len(walk) != len(vs.Variants) {
		return false
	}
	for i, v := range vs.Variants {
		if walk[i].hash != v.Hash || len(walk[i].flagSets) != len(v.FlagSets) {
			return false
		}
		for j, f := range v.FlagSets {
			if walk[i].flagSets[j] != f {
				return false
			}
		}
	}
	return true
}
