package glslgen_test

import (
	"strings"
	"testing"

	"shaderopt/internal/glslgen"
	"shaderopt/internal/ir"
	"shaderopt/internal/sem"
)

// sameNamedLocals returns a program declaring n float locals, all named x:
// what full inlining of a doubling call chain leaves behind.
func sameNamedLocals(n int) *ir.Program {
	p := ir.NewProgram("locals")
	for i := 0; i < n; i++ {
		p.Vars = append(p.Vars, &ir.Var{Name: "x", Type: sem.Float})
	}
	return p
}

// TestSameNamedLocalsLinear pins, in each GLSL dialect of the shared
// walk, that naming n same-named locals costs O(n): allocations for 4n locals
// stay within ~4.5x of those for n (a namer that restarts every search
// at x_2 allocates ~16x), emission succeeds, and the names are still x,
// x_2, …, x_4n. msl.TestEmitSameNamedLocalsLinear pins the same for MSL.
func TestSameNamedLocalsLinear(t *testing.T) {
	glsl := func(d glslgen.Dialect) func(*ir.Program) (string, error) {
		return func(p *ir.Program) (string, error) { return glslgen.Generate(p, d), nil }
	}
	for _, c := range []struct {
		name string
		emit func(*ir.Program) (string, error)
	}{
		{"Desktop", glsl(glslgen.Desktop)},
		{"ES", glsl(glslgen.ES)},
	} {
		t.Run(c.name, func(t *testing.T) {
			emit := func(p *ir.Program) string {
				out, err := c.emit(p)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			const n = 400
			small, large := sameNamedLocals(n), sameNamedLocals(4*n)
			a := testing.AllocsPerRun(5, func() { emit(small) })
			b := testing.AllocsPerRun(5, func() { emit(large) })
			t.Logf("allocs: %d locals %.0f, %d locals %.0f (%.2fx)", n, a, 4*n, b, b/a)
			if b > 4.5*a {
				t.Fatalf("allocs for %d locals = %.0f, for %d = %.0f: %.1fx, want <= 4.5x", n, a, 4*n, b, b/a)
			}
			out := emit(large)
			if !strings.Contains(out, "float x;") || !strings.Contains(out, "float x_1600;") || strings.Contains(out, "x_1601") {
				t.Fatalf("names are not x, x_2, ..., x_1600:\n%s", out)
			}
		})
	}
}
