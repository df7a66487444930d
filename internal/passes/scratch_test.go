package passes_test

import (
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/gpu"
	"shaderopt/internal/ir"
	"shaderopt/internal/passes"
)

// driverLowerings returns the driver front end's lowering of every corpus
// shader's unoptimized desktop text, as Session.frontEndFor parses it.
func driverLowerings(tb testing.TB) []*ir.Program {
	var progs []*ir.Program
	for _, sh := range corpus.MustLoad() {
		h, err := core.Compile(sh.Source, sh.Name, sh.Lang)
		if err != nil {
			tb.Fatal(err)
		}
		p, err := gpu.FrontEnd(h.Optimize(0), sh.Name)
		if err != nil {
			tb.Fatal(err)
		}
		progs = append(progs, p)
	}
	return progs
}

// TestCanonicalizeScratchAllocs bounds what a warmed Canonicalize
// allocates for its own bookkeeping: on a program already at its fixed
// point nothing in the program changes, so every allocation would be a
// scratch table, and the pooled rewriter's tables serve them all. The
// warm-up lets the pooled maps reach the size their churn of inserts
// and deletes settles at.
func TestCanonicalizeScratchAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector's sync.Pool drops rewriters at random")
	}
	for _, p := range driverLowerings(t) {
		for i := 0; i < 20; i++ {
			passes.Canonicalize(p)
		}
		if n := testing.AllocsPerRun(10, func() { passes.Canonicalize(p) }); n != 0 {
			t.Errorf("%s: Canonicalize at the fixed point allocates %v times, want 0", p.Name, n)
		}
	}
}

// BenchmarkCanonicalizeCorpus canonicalizes a fresh scratch copy of every
// corpus shader's driver lowering per op; with -benchmem it shows what
// the fixed point allocates, scratch tables included.
func BenchmarkCanonicalizeCorpus(b *testing.B) {
	progs := driverLowerings(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			c := p.CloneScratch()
			passes.Canonicalize(c)
			c.Release()
		}
	}
}

// BenchmarkADCECorpus runs ADCE on a scratch clone of every corpus
// shader's driver lowering per op, cloning outside the timer; with
// -benchmem it shows what the mark and sweep allocate.
func BenchmarkADCECorpus(b *testing.B) {
	progs := driverLowerings(b)
	clones := make([]*ir.Program, len(progs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for j, p := range progs {
			clones[j] = p.CloneScratch()
		}
		b.StartTimer()
		for _, c := range clones {
			passes.ADCE(c)
		}
		b.StopTimer()
		for _, c := range clones {
			c.Release()
		}
		b.StartTimer()
	}
}
