package ir_test

import (
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/ir"
)

// BenchmarkCloneCorpus clones the lowered program of every corpus shader
// once per op; run it with -benchmem to read Clone's allocations.
func BenchmarkCloneCorpus(b *testing.B) {
	var progs []*ir.Program
	for _, sh := range corpus.MustLoad() {
		h, err := core.Compile(sh.Source, sh.Name, sh.Lang)
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, h.IR())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			p.Clone()
		}
	}
}
