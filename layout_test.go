package shaderopt

import (
	"io"
	"sync"
	"testing"
	"unsafe"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/glsl"
	"shaderopt/internal/gpu"
	"shaderopt/internal/hlsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/msl"
	"shaderopt/internal/passes"
	"shaderopt/internal/sem"
	"shaderopt/internal/wgsl"
)

// TestLayoutPins bounds the sizes of the values every per-text layer
// allocates or copies by the million in a study: each instruction is its
// own heap object, a type is copied with every instruction and
// expression, and a token is one slot of a lexer's token slice. A field
// that grows one of them moves it into a larger allocation size class,
// which a cold study pays for on every instruction or token; the failure
// names that class.
func TestLayoutPins(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"ir.Instr", unsafe.Sizeof(ir.Instr{}), 144},
		{"sem.Type", unsafe.Sizeof(sem.Type{}), 32},
		{"glsl.Token", unsafe.Sizeof(glsl.Token{}), 32},
		{"wgsl.Token", unsafe.Sizeof(wgsl.Token{}), 32},
		{"hlsl.Token", unsafe.Sizeof(hlsl.Token{}), 32},
		{"msl.Token", unsafe.Sizeof(msl.Token{}), 32},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, over its %d-byte pin: it now allocates from the %d-byte size class",
				c.name, c.size, c.max, sizeClass(c.size))
		}
	}
}

// sizeClass returns the smallest of the Go allocator's small-object size
// classes (up to 1 KB) that holds n bytes.
func sizeClass(n uintptr) uintptr {
	for _, c := range []uintptr{8, 16, 24, 32, 48, 64, 80, 96, 112, 128, 144, 160, 176, 192, 208, 224, 240, 256,
		288, 320, 352, 384, 416, 448, 480, 512, 576, 640, 704, 768, 896, 1024} {
		if n <= c {
			return c
		}
	}
	return n
}

var (
	loweringsOnce sync.Once
	lowerings     []*ir.Program
	loweringsErr  error
)

// canonicalLowerings returns every corpus shader's canonical driver
// lowering: its driver-visible GLSL through the shared driver front end,
// then Canonicalize, as a driver compile sees it.
func canonicalLowerings(tb testing.TB) []*ir.Program {
	loweringsOnce.Do(func() {
		for _, s := range corpus.MustLoad() {
			h, err := core.Compile(s.Source, s.Name, s.Lang)
			if err != nil {
				loweringsErr = err
				return
			}
			p, err := gpu.FrontEnd(h.GLSL(), s.Name)
			if err != nil {
				loweringsErr = err
				return
			}
			passes.Canonicalize(p)
			lowerings = append(lowerings, p)
		}
	})
	if loweringsErr != nil {
		tb.Fatal(loweringsErr)
	}
	return lowerings
}

func instrCount(p *ir.Program) int {
	n := 0
	p.Body.WalkInstrs(func(*ir.Instr) { n++ })
	return n
}

// TestPrinterAllocationPins pins the IR printers' allocations. Print,
// and so FingerprintIR, allocates the same objects for the smallest
// corpus lowering as for the largest (a megapost shader): its buffer
// never grows. PrintAlpha allocates its renaming tables once per
// program, never per instruction.
func TestPrinterAllocationPins(t *testing.T) {
	progs := canonicalLowerings(t)
	small, large := progs[0], progs[0]
	for _, p := range progs {
		if instrCount(p) < instrCount(small) {
			small = p
		}
		if instrCount(p) > instrCount(large) {
			large = p
		}
	}
	allocs := func(f func(*ir.Program), p *ir.Program) float64 {
		return testing.AllocsPerRun(20, func() { f(p) })
	}
	for _, c := range []struct {
		name string
		f    func(*ir.Program)
	}{
		{"Print", func(p *ir.Program) { p.Print(io.Discard) }},
		{"FingerprintIR", func(p *ir.Program) { core.FingerprintIR(p) }},
	} {
		if s, l := allocs(c.f, small), allocs(c.f, large); s != l {
			t.Errorf("%s allocates %.0f objects for %s (%d instructions) but %.0f for %s (%d instructions)",
				c.name, s, small.Name, instrCount(small), l, large.Name, instrCount(large))
		}
	}
	// A handful of objects covers the buffer, the ID table and the two
	// renaming maps on every supported Go version; one per instruction
	// would be hundreds.
	alpha := func(p *ir.Program) { p.PrintAlpha(io.Discard) }
	s, l := allocs(alpha, small), allocs(alpha, large)
	if l > 16 || l-s > 8 {
		t.Errorf("PrintAlpha allocates %.0f objects for %s (%d instructions) and %.0f for %s (%d instructions); want a per-program constant",
			s, small.Name, instrCount(small), l, large.Name, instrCount(large))
	}
}
