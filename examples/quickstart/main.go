// Quickstart: compile one fragment shader to a handle (parsed exactly
// once), optimize it offline under two flag sets, measure everything on
// all five simulated GPUs — then do the same study from an HLSL source
// through the third frontend, with zero changes past the IR.
package main

import (
	"fmt"
	"log"

	"shaderopt"
)

const src = `#version 330
uniform sampler2D tex;
uniform vec4 tint;
in vec2 uv;
out vec4 color;
void main() {
    vec4 acc = vec4(0.0);
    for (int i = 0; i < 4; i++) {
        acc += texture(tex, uv + vec2(float(i) * 0.005, 0.0)) / 4.0;
    }
    color = acc * tint * 2.0 + acc * tint;
}
`

func main() {
	protocol := shaderopt.FastProtocol()

	// One Compile, many products: every call below reuses the cached IR.
	sh, err := shaderopt.Compile(src, "quickstart")
	if err != nil {
		log.Fatal(err)
	}
	defaultOut := sh.Optimize(shaderopt.DefaultFlags)
	allOut := sh.Optimize(shaderopt.AllFlags)
	fmt.Printf("original %d bytes; default-flags %d bytes; all-flags %d bytes; %d distinct variants\n\n",
		len(src), len(defaultOut), len(allOut), sh.Variants().Unique())

	// The optimized texts are shaders in their own right: compile each to
	// a handle and measure it the same way as the original.
	defaultSh, err := shaderopt.Compile(defaultOut, "quickstart-default")
	if err != nil {
		log.Fatal(err)
	}
	allSh, err := shaderopt.Compile(allOut, "quickstart-all")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("%-10s %14s %14s %14s %10s\n", "Platform", "original", "default", "all flags", "best gain")
	for _, pl := range shaderopt.Platforms() {
		orig, err := sh.Measure(pl, protocol)
		if err != nil {
			log.Fatal(err)
		}
		def, err := defaultSh.Measure(pl, protocol)
		if err != nil {
			log.Fatal(err)
		}
		all, err := allSh.Measure(pl, protocol)
		if err != nil {
			log.Fatal(err)
		}
		best := def.MedianNS
		if all.MedianNS < best {
			best = all.MedianNS
		}
		fmt.Printf("%-10s %11.2fms %11.2fms %11.2fms %+9.2f%%\n",
			pl.Vendor,
			orig.MedianNS/1e6, def.MedianNS/1e6, all.MedianNS/1e6,
			shaderopt.Speedup(orig.MedianNS, best))
	}

	fmt.Println("\nOptimized shader (all flags):")
	fmt.Println(allOut)

	// The same pipeline speaks HLSL (and WGSL): the frontend is
	// auto-detected, the handle API is identical, and every product —
	// variants, measurements, renders — derives from the same shared IR.
	hlslSh, err := shaderopt.Compile(hlslSrc, "quickstart-hlsl")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nHLSL input (detected %s): %d distinct variants; driver sees:\n%s\n",
		hlslSh.Lang(), hlslSh.Variants().Unique(), hlslSh.Optimize(shaderopt.AllFlags))
}

const hlslSrc = `
Texture2D tex : register(t0);
SamplerState smp : register(s0);

cbuffer Params : register(b0) {
    float4 tint;
};

float4 main(float2 uv : TEXCOORD0) : SV_Target {
    float4 acc = float4(0.0, 0.0, 0.0, 0.0);
    [unroll] for (int i = 0; i < 4; i++) {
        acc += tex.Sample(smp, uv + float2(float(i) * 0.005, 0.0)) / 4.0;
    }
    return acc * tint * 2.0 + acc * tint;
}
`
