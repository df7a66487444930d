package ir_test

import (
	"runtime/debug"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/glsl"
	"shaderopt/internal/ir"
	"shaderopt/internal/lower"
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

// TestReleasedLoweringServesNextLowering checks the widened Release: the
// full-size chunks a released lowering started serve the next lowering's
// NewInstr, and the program built in them is a faithful lowering that
// shares no instruction with a live one.
func TestReleasedLoweringServesNextLowering(t *testing.T) {
	// The chunks wait in a sync.Pool, which a collection may empty.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sh := corpus.ByName(corpus.MustLoad(), "megapost/s80")
	lowerIt := func() *ir.Program {
		parsed, err := glsl.Parse(sh.Source)
		if err != nil {
			t.Fatal(err)
		}
		p, err := lower.Lower(parsed, sh.Name)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	instrs := func(p *ir.Program) map[*ir.Instr]bool {
		m := map[*ir.Instr]bool{}
		p.Body.WalkInstrs(func(in *ir.Instr) { m[in] = true })
		return m
	}
	live := lowerIt()
	want := live.String()
	dead := lowerIt()
	deadInstrs := instrs(dead)
	dead.Release()
	next := lowerIt()
	if err := next.Verify(); err != nil {
		t.Fatal(err)
	}
	if next.String() != want || live.String() != want {
		t.Fatal("a lowering into released chunks prints differently")
	}
	reused := 0
	liveInstrs := instrs(live)
	for in := range instrs(next) {
		if liveInstrs[in] {
			t.Fatal("a lowering into released chunks shares an instruction with a live one")
		}
		if deadInstrs[in] {
			reused++
		}
	}
	if reused == 0 {
		t.Error("no instruction of the next lowering sits in a released chunk")
	}
}
