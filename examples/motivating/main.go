// Motivating example: the paper's Listing 1 blur shader, before and after
// optimization (Listing 2), with the Figure 3 per-platform speed-ups.
package main

import (
	"fmt"
	"log"

	"shaderopt"
	"shaderopt/internal/corpus"
)

func main() {
	me := corpus.MotivatingExample()
	fmt.Println("=== Listing 1 (original GFXBench-style blur) ===")
	fmt.Println(me.Source)

	sh, err := shaderopt.Compile(me.Source, me.Name)
	if err != nil {
		log.Fatal(err)
	}
	vs := sh.Variants()
	fmt.Printf("256 flag combinations -> %d unique variants\n\n", vs.Unique())

	fmt.Println("=== Listing 2 (after unroll + constant folding + unsafe FP reassociation + div-to-mul) ===")
	fmt.Println(sh.Optimize(shaderopt.AllFlags))

	fmt.Println("=== Figure 3: speed-up of the best variant per platform ===")
	// Exhaustive per-shader search: one session sweep measures the
	// original and every distinct variant on every platform.
	sess := shaderopt.NewSession(shaderopt.WithProtocol(shaderopt.FastProtocol()))
	sweep, err := sess.Sweep([]*shaderopt.Shader{sh}, nil)
	if err != nil {
		log.Fatal(err)
	}
	r := sweep.Results[0]
	for _, pl := range sess.Platforms() {
		// Best variant for this platform.
		origNS := r.OrigNS[pl.Vendor]
		bestNS := origNS
		var bestFlags shaderopt.Flags
		for _, v := range vs.Variants {
			if ns := r.VariantNS[pl.Vendor][v.Hash]; ns < bestNS {
				bestNS = ns
				bestFlags = v.Canonical()
			}
		}
		fmt.Printf("  %-10s %+7.2f%%   (best flags: %v)\n",
			pl.Vendor, shaderopt.Speedup(origNS, bestNS), bestFlags)
	}
}
