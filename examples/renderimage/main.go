// Renderimage: uses the functional interpreter to render a corpus shader
// to PNG before and after optimization, demonstrating that the unsafe
// flags preserve the image (the harness's visual-equivalence check).
package main

import (
	"flag"
	"fmt"
	"image"
	"image/color"
	"image/png"
	"log"
	"math"
	"os"

	"shaderopt"
	"shaderopt/internal/corpus"
)

func main() {
	shaderName := flag.String("shader", "tonemap/filmic_full", "corpus shader to render")
	size := flag.Int("size", 96, "image size in pixels")
	outDir := flag.String("out", ".", "output directory")
	flag.Parse()

	shaders, err := shaderopt.Corpus()
	if err != nil {
		log.Fatal(err)
	}
	sh := corpus.ByName(shaders, *shaderName)
	if sh == nil {
		log.Fatalf("unknown shader %q", *shaderName)
	}

	handle, err := shaderopt.Compile(sh.Source, sh.Name)
	if err != nil {
		log.Fatal(err)
	}
	before, err := handle.Render(*size, *size, shaderopt.NoFlags)
	if err != nil {
		log.Fatal(err)
	}
	after, err := handle.Render(*size, *size, shaderopt.AllFlags)
	if err != nil {
		log.Fatal(err)
	}

	maxDiff := 0.0
	for y := range before {
		for x := range before[y] {
			for c := 0; c < 4; c++ {
				d := math.Abs(before[y][x][c] - after[y][x][c])
				if d > maxDiff {
					maxDiff = d
				}
			}
		}
	}

	writePNG := func(name string, img [][][4]float64) string {
		path := fmt.Sprintf("%s/%s", *outDir, name)
		out := image.NewRGBA(image.Rect(0, 0, *size, *size))
		for y := range img {
			for x := range img[y] {
				px := img[y][x]
				out.Set(x, y, color.RGBA{clamp8(px[0]), clamp8(px[1]), clamp8(px[2]), 255})
			}
		}
		f, err := os.Create(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := png.Encode(f, out); err != nil {
			log.Fatal(err)
		}
		return path
	}

	p1 := writePNG("shader_before.png", before)
	p2 := writePNG("shader_after.png", after)
	fmt.Printf("rendered %s at %dx%d\n  before: %s\n  after:  %s\n", sh.Name, *size, *size, p1, p2)
	fmt.Printf("max per-channel difference after unsafe optimization: %.2e\n", maxDiff)
	if maxDiff > 1e-3 {
		fmt.Println("WARNING: visible difference — unsafe flags changed the image")
	} else {
		fmt.Println("images are visually identical")
	}
}

func clamp8(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v*255 + 0.5)
}
