package core

import (
	"sync/atomic"
	"testing"
)

// TestParallelForReraisesWorkerPanic pins that a panic on one of
// parallelFor's worker goroutines surfaces on the calling goroutine, where
// a caller's recover can turn it into an error, instead of ending the
// process.
func TestParallelForReraisesWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		got := func() (r any) {
			defer func() { r = recover() }()
			parallelFor(workers, 64, func(i int) {
				ran.Add(1)
				if i == 17 {
					panic("worker exploded")
				}
			})
			return nil
		}()
		if got != "worker exploded" {
			t.Fatalf("workers=%d: recovered %v, want the worker's panic value", workers, got)
		}
		if ran.Load() == 0 {
			t.Fatalf("workers=%d: no item ran", workers)
		}
	}
}
