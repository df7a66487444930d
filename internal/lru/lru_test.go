package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestBasicGetAdd(t *testing.T) {
	c := New[string, int](10)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Add("a", 1, 3)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	if c.Len() != 1 || c.Cost() != 3 {
		t.Fatalf("len/cost = %d/%d, want 1/3", c.Len(), c.Cost())
	}
}

func TestEvictionOrderIsLRU(t *testing.T) {
	c := New[string, int](3)
	c.Add("a", 1, 1)
	c.Add("b", 2, 1)
	c.Add("c", 3, 1)
	c.Get("a") // refresh a: b is now least recently used
	c.Add("d", 4, 1)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s should have survived", k)
		}
	}
}

func TestCostNeverExceedsBound(t *testing.T) {
	c := New[int, string](100)
	for i := 0; i < 1000; i++ {
		c.Add(i, "v", 1+i%17)
		if c.Cost() > 100 {
			t.Fatalf("cost %d exceeds bound 100 after %d adds", c.Cost(), i+1)
		}
	}
	if c.Len() == 0 {
		t.Fatal("cache emptied itself")
	}
}

func TestOversizedEntryRejected(t *testing.T) {
	c := New[string, int](5)
	var rejects fakeCounter
	c.Instrument(nil, nil, nil, &rejects)
	c.Add("big", 1, 6)
	if _, ok := c.Get("big"); ok {
		t.Fatal("entry costlier than the whole bound must not be admitted")
	}
	if c.Cost() != 0 {
		t.Fatalf("cost = %d after rejected add", c.Cost())
	}
	// The refusal must be visible: neither a hit, miss, nor eviction
	// records it, so without the rejected counter a too-small bound looks
	// like a cache that never warms for no reason.
	if _, _, _, rejected := c.Stats(); rejected != 1 {
		t.Fatalf("rejected = %d, want 1", rejected)
	}
	if rejects.v != 1 {
		t.Fatalf("reject sink = %d, want 1", rejects.v)
	}
	c.Add("fits", 2, 5) // exactly at the bound: admitted, not a rejection
	if _, ok := c.Get("fits"); !ok {
		t.Fatal("entry at exactly the bound must be admitted")
	}
	if _, _, _, rejected := c.Stats(); rejected != 1 {
		t.Fatalf("rejected = %d after admissible add, want 1", rejected)
	}
}

func TestUpdateExistingAdjustsCost(t *testing.T) {
	c := New[string, int](10)
	c.Add("a", 1, 4)
	c.Add("a", 2, 6)
	if c.Len() != 1 || c.Cost() != 6 {
		t.Fatalf("len/cost = %d/%d, want 1/6", c.Len(), c.Cost())
	}
	if v, _ := c.Get("a"); v != 2 {
		t.Fatalf("Get(a) = %d, want 2", v)
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	c := New[int, int](0)
	for i := 0; i < 500; i++ {
		c.Add(i, i, 100)
	}
	if c.Len() != 500 {
		t.Fatalf("len = %d, want 500 (unbounded)", c.Len())
	}
	if _, _, evicted, _ := c.Stats(); evicted != 0 {
		t.Fatalf("evicted = %d, want 0", evicted)
	}
}

func TestNonPositiveCostCountsAsOne(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1, 0)
	c.Add("b", 2, -5)
	if c.Cost() != 2 {
		t.Fatalf("cost = %d, want 2 (each entry at least 1)", c.Cost())
	}
	c.Add("c", 3, 1)
	if c.Len() != 2 {
		t.Fatalf("len = %d after eviction, want 2", c.Len())
	}
}

func TestStats(t *testing.T) {
	c := New[string, int](1)
	c.Get("miss")
	c.Add("a", 1, 1)
	c.Get("a")
	c.Add("b", 2, 1) // evicts a
	hits, misses, evicted, rejected := c.Stats()
	if hits != 1 || misses != 1 || evicted != 1 || rejected != 0 {
		t.Fatalf("stats = %d/%d/%d/%d, want 1/1/1/0", hits, misses, evicted, rejected)
	}
}

// fakeCounter is a minimal stats sink for Instrument tests.
type fakeCounter struct{ v int64 }

func (f *fakeCounter) Add(delta int64) { f.v += delta }

func TestInstrumentSinks(t *testing.T) {
	c := New[string, int](1)
	var hits, misses, evicts, rejects fakeCounter
	c.Instrument(&hits, &misses, &evicts, &rejects)
	c.Get("miss")
	c.Add("a", 1, 1)
	c.Get("a")
	c.Add("b", 2, 1) // evicts a
	c.Add("big", 3, 2)
	if hits.v != 1 || misses.v != 1 || evicts.v != 1 || rejects.v != 1 {
		t.Fatalf("sinks = %d/%d/%d/%d, want 1/1/1/1", hits.v, misses.v, evicts.v, rejects.v)
	}
	// The internal stats count the same events, and nil sinks are allowed.
	if h, m, e, rj := c.Stats(); h != 1 || m != 1 || e != 1 || rj != 1 {
		t.Fatalf("stats = %d/%d/%d/%d, want 1/1/1/1", h, m, e, rj)
	}
	c.Instrument(nil, nil, nil, nil)
	c.Get("b")
	if hits.v != 1 {
		t.Fatalf("detached sink advanced: %d", hits.v)
	}
}

// TestConcurrentMixedUse drives the cache from many goroutines under -race
// and checks the bound holds throughout.
func TestConcurrentMixedUse(t *testing.T) {
	const bound = 64
	c := New[string, int](bound)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*31+i)%100)
				if _, ok := c.Get(k); !ok {
					c.Add(k, i, 1+i%5)
				}
				if cost := c.Cost(); cost > bound {
					t.Errorf("cost %d exceeds bound %d", cost, bound)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPeekCountsNothing pins that Peek reads a value without touching
// recency or the hit/miss counters.
func TestPeekCountsNothing(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1, 1)
	c.Add("b", 2, 1)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %d, %v", v, ok)
	}
	if _, ok := c.Peek("z"); ok {
		t.Fatal("Peek(z) hit on an absent key")
	}
	if h, m, _, _ := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("Peek counted hits/misses %d/%d, want 0/0", h, m)
	}
	c.Add("c", 3, 1) // a is still least recently used
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek refreshed a's recency: b was evicted instead")
	}
}
