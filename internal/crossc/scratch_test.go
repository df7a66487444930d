package crossc_test

import (
	"runtime"
	"slices"
	"strings"
	"testing"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/crossc"
	"shaderopt/internal/ir"
	"shaderopt/internal/passes"
)

// roundTrip takes one corpus shader through every stage that keeps
// scratch tables between calls — the frontends' checker, lowering and
// binder, Canonicalize, the ES conversion's namer, and both re-ingestion
// round trips (MSL namer and translator, SPIR-V emitter and decoder) —
// and returns everything they printed.
func roundTrip(t *testing.T, sh *corpus.Shader) string {
	h, err := core.Compile(sh.Source, sh.Name, sh.Lang)
	if err != nil {
		t.Fatal(err)
	}
	p := h.IR()
	var out strings.Builder
	es, err := crossc.ESFromIR(p, "mobile")
	if err != nil {
		t.Fatal(err)
	}
	out.WriteString(es)
	passes.Canonicalize(p)
	out.WriteString(p.String())
	for _, format := range []string{crossc.IngestMSL, crossc.IngestSPIRV} {
		re, err := crossc.Reingest(p, sh.Name, format)
		if err != nil {
			t.Fatal(err)
		}
		passes.Canonicalize(re)
		out.WriteString(re.String())
		re.Release()
	}
	return out.String()
}

// TestScratchCarriesNothingAcrossCalls runs every corpus shader through
// the pooled scratch tables in two different orders on one goroutine, so
// each call inherits the tables another shader left, and checks that
// every print equals a fresh run of that shader: one after two
// collections, which empty every pool.
func TestScratchCarriesNothingAcrossCalls(t *testing.T) {
	var shaders []*corpus.Shader
	for i, sh := range corpus.MustLoad() {
		if !testing.Short() || i%4 == 0 {
			shaders = append(shaders, sh)
		}
	}
	fresh := make([]string, len(shaders))
	for i, sh := range shaders {
		runtime.GC()
		runtime.GC()
		fresh[i] = roundTrip(t, sh)
	}
	order := make([]int, len(shaders))
	for i := range order {
		order[i] = i
	}
	for pass := 0; pass < 2; pass++ {
		for _, i := range order {
			if got := roundTrip(t, shaders[i]); got != fresh[i] {
				t.Fatalf("%s: a run after %d others prints differently from a fresh one", shaders[i].Name, len(order))
			}
		}
		slices.Reverse(order)
	}
}

// BenchmarkReingestCorpus takes the canonical lowering of every corpus
// shader through the MSL and the SPIR-V round trip per op; with
// -benchmem it shows what emitting and re-ingesting allocate.
func BenchmarkReingestCorpus(b *testing.B) {
	var progs []*ir.Program
	for _, sh := range corpus.MustLoad() {
		h, err := core.Compile(sh.Source, sh.Name, sh.Lang)
		if err != nil {
			b.Fatal(err)
		}
		p := h.IR()
		passes.Canonicalize(p)
		progs = append(progs, p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			for _, format := range []string{crossc.IngestMSL, crossc.IngestSPIRV} {
				re, err := crossc.Reingest(p, p.Name, format)
				if err != nil {
					b.Fatal(err)
				}
				re.Release()
			}
		}
	}
}
