package search

import (
	"strings"
	"sync"
	"testing"
	"time"

	"shaderopt/internal/core"
	"shaderopt/internal/corpus"
	"shaderopt/internal/gpu"
	"shaderopt/internal/harness"
	"shaderopt/internal/ir"
)

// TestSweepWorkerPanicBecomesError pins that a panic on a sweep worker
// goroutine neither ends the process nor strands other sweeps: the
// session's fingerprint seam panics while the first sweep owns every
// in-flight measurement of the platform, a second sweep over the same
// shader is already waiting on those entries, and both Sweep calls must
// return an error.
func TestSweepWorkerPanicBecomesError(t *testing.T) {
	s := corpus.ByName(corpus.MustLoad(), "ui/flat")
	h, err := core.Compile(s.Source, s.Name, s.Lang)
	if err != nil {
		t.Fatal(err)
	}
	sess := NewSession([]*gpu.Platform{gpu.NewIntel()}, Options{Cfg: harness.FastConfig(), Workers: 1})
	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	sess.fingerprint = func(*ir.Program) string {
		once.Do(func() {
			close(entered)
			<-release
		})
		panic("fingerprint seam exploded")
	}

	errs := make(chan error, 2)
	sweep := func() {
		_, err := sess.Sweep([]*core.Shader{h}, nil)
		errs <- err
	}
	go sweep()
	<-entered // the first sweep has reserved every slot and is resolving one

	// The second sweep finds every slot in flight: each counts as a
	// measurement-cache hit before it starts waiting.
	vs, _ := sess.Variants(h)
	slots := int64(1 + vs.Unique())
	hitsBefore := sess.measHits.Value()
	go sweep()
	for deadline := time.Now().Add(10 * time.Second); sess.measHits.Value()-hitsBefore < slots; {
		if time.Now().After(deadline) {
			t.Fatal("second sweep never reached the in-flight entries")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("sweep with a panicking fingerprint returned no error")
			}
			if !strings.Contains(err.Error(), "fingerprint seam exploded") {
				t.Fatalf("error does not carry the panic: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a sweep hung after another sweep's worker panicked")
		}
	}
}
