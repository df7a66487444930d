// Autotune: per-shader iterative compilation on one platform — enumerate
// every distinct variant, measure each, and report the winner vs the
// one-size-fits-all static flag choice. This is the per-shader tuning the
// paper's conclusion calls for ("smarter techniques to choose when and how
// to optimize each shader for each platform").
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"shaderopt"
	"shaderopt/internal/corpus"
)

func main() {
	vendor := flag.String("platform", "ARM", "target platform: Intel, AMD, NVIDIA, ARM, Qualcomm")
	shaderName := flag.String("shader", "tonemap/filmic_full", "corpus shader to tune")
	flag.Parse()

	pl := shaderopt.PlatformByVendor(*vendor)
	if pl == nil {
		log.Fatalf("unknown platform %q", *vendor)
	}
	shaders, err := shaderopt.Corpus()
	if err != nil {
		log.Fatal(err)
	}
	sh := corpus.ByName(shaders, *shaderName)
	if sh == nil {
		log.Fatalf("unknown shader %q (try blur/v9, fxaa/hq, pbr/l2_spec)", *shaderName)
	}

	handle, err := shaderopt.Compile(sh.Source, sh.Name)
	if err != nil {
		log.Fatal(err)
	}
	// One session sweep on the target platform measures the original and
	// every distinct variant.
	sess := shaderopt.NewSession(shaderopt.WithProtocol(shaderopt.FastProtocol()), shaderopt.WithPlatforms(pl))
	sweep, err := sess.Sweep([]*shaderopt.Shader{handle}, nil)
	if err != nil {
		log.Fatal(err)
	}
	r := sweep.Results[0]
	origNS := r.OrigNS[pl.Vendor]
	fmt.Printf("Tuning %s on %s (%s)\noriginal: %.3fms/frame\n\n",
		sh.Name, pl.Vendor, pl.GPUName, origNS/1e6)

	type row struct {
		flags shaderopt.Flags
		ns    float64
		nsets int
	}
	rows := make([]row, 0, r.Variants.Unique())
	for _, v := range r.Variants.Variants {
		rows = append(rows, row{v.Canonical(), r.VariantNS[pl.Vendor][v.Hash], len(v.FlagSets)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].ns < rows[j].ns })

	fmt.Printf("%d unique variants of 256 combinations:\n", len(rows))
	for i, row := range rows {
		marker := " "
		if i == 0 {
			marker = "*"
		}
		fmt.Printf("%s %-55v %9.3fms  %+7.2f%%  (%d flag sets)\n",
			marker, row.flags, row.ns/1e6, shaderopt.Speedup(origNS, row.ns), row.nsets)
	}

	fmt.Printf("\nper-shader tuned: %+.2f%%   default LunarGlass flags: %+.2f%%\n",
		shaderopt.Speedup(origNS, rows[0].ns),
		shaderopt.Speedup(origNS, r.NSFor(pl.Vendor, shaderopt.DefaultFlags)))
}
