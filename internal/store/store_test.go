package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testCounter is a minimal Counter sink.
type testCounter struct{ v atomic.Int64 }

func (c *testCounter) Add(d int64) { c.v.Add(d) }
func (c *testCounter) Value() int64 {
	return c.v.Load()
}

func open(t *testing.T, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, 0)
	keys := []string{"a", "", "key with\x00nul and\nnewline", "vendor\x00fp\x00proto"}
	for i, k := range keys {
		payload := []byte(fmt.Sprintf("payload-%d", i))
		if err := s.Put(k, payload); err != nil {
			t.Fatalf("put %q: %v", k, err)
		}
		got, ok := s.Get(k)
		if !ok || string(got) != string(payload) {
			t.Fatalf("get %q = %q, %v; want %q", k, got, ok, payload)
		}
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("absent key reported a hit")
	}
	if n := s.Len(); n != len(keys) {
		t.Fatalf("Len = %d, want %d", n, len(keys))
	}
}

func TestReopenServesWarmEntries(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s1.Sync(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get("k")
	if !ok || string(got) != "v" {
		t.Fatalf("warm reopen Get = %q, %v; want \"v\"", got, ok)
	}
	if s2.SizeBytes() != s1.SizeBytes() {
		t.Fatalf("reopen size %d != writer size %d", s2.SizeBytes(), s1.SizeBytes())
	}
}

// entryPath locates the single on-disk entry file for key.
func entryPath(t *testing.T, s *Store, key string) string {
	t.Helper()
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	return filepath.Join(s.Dir(), name[:2], name[2:]+entryExt)
}

// corruptions maps a name to a mutation of a valid on-disk entry. Every
// mutation must degrade to a cache miss — never an error, never a wrong
// payload — and the corrupt entry must be dropped so the slot heals.
var corruptions = map[string]func([]byte) []byte{
	"truncated header": func(raw []byte) []byte { return raw[:headerSize/2] },
	"truncated payload": func(raw []byte) []byte {
		return raw[:len(raw)-1]
	},
	"bad checksum": func(raw []byte) []byte {
		raw[len(raw)-1] ^= 0xff
		return raw
	},
	"wrong version": func(raw []byte) []byte {
		raw[7] ^= 0xff
		return raw
	},
	"bad magic": func(raw []byte) []byte {
		raw[0] = 'X'
		return raw
	},
	"empty file": func([]byte) []byte { return nil },
	// What an unsynced rename can leave after a power loss: the entry's
	// length on disk, but none of its data blocks.
	"zeroed payload": func(raw []byte) []byte { return make([]byte, len(raw)) },
	"extra trailing bytes": func(raw []byte) []byte {
		return append(raw, 0xAA)
	},
}

func TestCorruptEntriesDegradeToMiss(t *testing.T) {
	for name, mutate := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := open(t, 0)
			var hits, misses, corrupt testCounter
			s.Instrument(&hits, &misses, nil, nil, &corrupt)
			if err := s.Put("k", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			path := entryPath(t, s, "k")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("k"); ok {
				t.Fatalf("corrupt entry returned a hit: %q", got)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt entry not dropped: stat err = %v", err)
			}
			if corrupt.Value() != 1 || misses.Value() != 1 || hits.Value() != 0 {
				t.Fatalf("counters corrupt=%d misses=%d hits=%d, want 1, 1, 0",
					corrupt.Value(), misses.Value(), hits.Value())
			}
			// The slot heals: a rewrite serves again.
			if err := s.Put("k", []byte("fresh")); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("k"); !ok || string(got) != "fresh" {
				t.Fatalf("healed slot Get = %q, %v; want \"fresh\"", got, ok)
			}
		})
	}
}

// TestPutRecreatesRemovedShard pins that Put creates a shard directory
// on demand: it does not assume a shard it wrote before still exists, so
// a directory removed underneath the store is recreated by the next Put.
func TestPutRecreatesRemovedShard(t *testing.T) {
	s := open(t, 0)
	if err := s.Put("k", []byte("first")); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Dir(entryPath(t, s, "k"))
	if err := os.RemoveAll(shard); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("second")); err != nil {
		t.Fatalf("put after shard removal: %v", err)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "second" {
		t.Fatalf("Get after shard removal = %q, %v; want \"second\"", got, ok)
	}
}

func TestEvictionKeepsRecentlyUsed(t *testing.T) {
	// Each entry is headerSize + 8 payload bytes; bound to ~4 entries.
	entry := int64(headerSize + 8)
	s := open(t, 4*entry)
	var evictions testCounter
	s.Instrument(nil, nil, nil, &evictions, nil)

	put := func(k string) {
		t.Helper()
		if err := s.Put(k, []byte("8bytes!!")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		put(fmt.Sprintf("k%d", i))
		// File mtimes order the LRU queue; space the writes out so
		// coarse filesystem timestamps still distinguish them.
		time.Sleep(5 * time.Millisecond)
	}
	// Touch k0 so k1 becomes the eviction victim.
	if _, ok := s.Get("k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	time.Sleep(5 * time.Millisecond)
	put("k4")

	if _, ok := s.Get("k1"); ok {
		t.Fatal("least-recently-used entry k1 survived eviction")
	}
	for _, k := range []string{"k0", "k2", "k3", "k4"} {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("entry %s evicted out of LRU order", k)
		}
	}
	if evictions.Value() == 0 {
		t.Fatal("eviction sink never fired")
	}
	if s.SizeBytes() > s.Bound() {
		t.Fatalf("footprint %d exceeds bound %d after eviction", s.SizeBytes(), s.Bound())
	}
}

func TestOversizeStoreIsUnboundedWhenZero(t *testing.T) {
	s := open(t, 0)
	for i := 0; i < 50; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), make([]byte, 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.Len(); n != 50 {
		t.Fatalf("unbounded store evicted: Len = %d, want 50", n)
	}
}

// TestConcurrentReadersWritersRace hammers one store with overlapping
// readers, writers, and corruptors under -race: every Get must return
// either a complete payload for the key or a miss — never an error, a
// torn read, or another key's payload.
func TestConcurrentReadersWritersRace(t *testing.T) {
	s := open(t, 64*1024)
	var wg sync.WaitGroup
	const keys = 16
	payloadFor := func(k int) []byte {
		return []byte(fmt.Sprintf("key-%d-payload-%032d", k, k))
	}
	iters := 200
	if testing.Short() {
		iters = 50
	}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				k := (g + i) % keys
				key := fmt.Sprintf("k%d", k)
				switch {
				case g%4 == 3 && i%17 == 0:
					// Corrupt the on-disk entry out from underneath
					// the readers; they must degrade to a miss.
					path := entryPath(t, s, key)
					os.WriteFile(path, []byte("torn"), 0o644)
				case g%2 == 0:
					if err := s.Put(key, payloadFor(k)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				default:
					if got, ok := s.Get(key); ok {
						if string(got) != string(payloadFor(k)) {
							t.Errorf("Get(%s) returned wrong payload %q", key, got)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWriteDuringEvictKeepsAccounting drives a bounded store with
// concurrent writers so evictions run while Puts land mid-walk — the
// interleaving whose naive size resync (s.size = walk total) silently
// shed the concurrent writers' bytes from the accounting. After the
// storm settles, the tracked footprint must match a fresh scan of the
// directory: no leak, no phantom bytes. Run under -race.
func TestWriteDuringEvictKeepsAccounting(t *testing.T) {
	dir := t.TempDir()
	// Bound small enough that almost every Put triggers an evict pass.
	s, err := Open(dir, 4096)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 512)
	iters := 120
	if testing.Short() {
		iters = 30
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("g%d-i%d", g, i)
				if err := s.Put(key, payload); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				s.Get(key)
			}
		}(g)
	}
	wg.Wait()

	// One quiescent evict pass resyncs size to the directory contents.
	s.evict()
	tracked := s.SizeBytes()
	onDisk, err := s.scanSize()
	if err != nil {
		t.Fatal(err)
	}
	if tracked != onDisk {
		t.Fatalf("tracked size %d diverges from on-disk footprint %d", tracked, onDisk)
	}
	if max := s.Bound(); onDisk > max {
		t.Fatalf("footprint %d exceeds bound %d after eviction settled", onDisk, max)
	}
}

// TestStaleTempCleanup pins the orphan sweep: a crashed writer's old
// put-*.tmp file is deleted at Open and by evict passes, while a fresh
// temp file (a Put possibly still in flight) survives.
func TestStaleTempCleanup(t *testing.T) {
	dir := t.TempDir()
	shard := filepath.Join(dir, "ab")
	if err := os.MkdirAll(shard, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(shard, "put-crashed.tmp")
	fresh := filepath.Join(shard, "put-inflight.tmp")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * tmpMaxAge)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived Open: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file was swept: %v", err)
	}
}

// TestEvictorsAreSerialized pins that a second goroutine hitting the
// over-bound check while an evict walk runs does not start a second
// walk: TryLock makes it leave, and the running evictor's delta resync
// covers the bytes it wrote. The observable here is simply that heavy
// contention settles to a consistent, bounded store (the lock itself is
// unobservable), complementing the accounting test above.
func TestEvictorsAreSerialized(t *testing.T) {
	s := open(t, 2048)
	payload := make([]byte, 700) // ~3 entries fit; every Put evicts
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				if err := s.Put(fmt.Sprintf("s%d-%d", g, i), payload); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	s.evict()
	if size, max := s.SizeBytes(), s.Bound(); size > max {
		t.Fatalf("size %d over bound %d after settling", size, max)
	}
}

// BenchmarkStorePut writes distinct keys with 165-byte payloads, the mean
// entry size of a cold corpus study, into an unbounded store.
func BenchmarkStorePut(b *testing.B) {
	s, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	payload := make([]byte, 165)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put("bench\x00"+strconv.Itoa(i), payload); err != nil {
			b.Fatal(err)
		}
	}
}
