package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// testCounter is a minimal Counter sink.
type testCounter struct{ v atomic.Int64 }

func (c *testCounter) Add(d int64) { c.v.Add(d) }
func (c *testCounter) Value() int64 {
	return c.v.Load()
}

func open(t testing.TB, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func put(t testing.TB, s *Store, key, payload string) {
	t.Helper()
	if err := s.Put(key, []byte(payload)); err != nil {
		t.Fatalf("put %q: %v", key, err)
	}
}

// segments returns the segment files in dir and their summed bytes.
func segments(t testing.TB, dir string) ([]string, int64) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*"+segExt))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, name := range names {
		fi, err := os.Stat(name)
		if err != nil {
			t.Fatal(err)
		}
		total += fi.Size()
	}
	return names, total
}

// locate returns the segment file and offset of key's indexed record.
func locate(s *Store, key string) (path string, off int64, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.index[sha256.Sum256([]byte(key))]
	if !ok {
		return "", 0, false
	}
	return r.seg.f.Name(), r.off, true
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	keys := []string{"a", "", "key with\x00nul and\nnewline", "vendor\x00fp\x00proto"}
	for i, k := range keys {
		payload := fmt.Sprintf("payload-%d", i)
		put(t, s, k, payload)
		got, ok := s.Get(k)
		if !ok || string(got) != payload {
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
	s1 := open(t, dir, 0)
	put(t, s1, "k", "v")
	put(t, s1, "k", "newest") // the last record for a key wins
	if err := s1.Sync(); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, 0)
	got, ok := s2.Get("k")
	if !ok || string(got) != "newest" {
		t.Fatalf("warm reopen Get = %q, %v; want \"newest\"", got, ok)
	}
	if s2.SizeBytes() != s1.SizeBytes() {
		t.Fatalf("reopen size %d != writer size %d", s2.SizeBytes(), s1.SizeBytes())
	}
}

// TestCloseReleasesSegments: Close closes every segment file the handle
// holds, its own and the ones it indexed at Open; afterwards Get is a
// miss and Put fails, and a fresh handle still serves every synced entry.
func TestCloseReleasesSegments(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 3; i++ {
		w := open(t, dir, 0)
		put(t, w, fmt.Sprintf("old-%d", i), "v")
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	s := open(t, dir, 0)
	put(t, s, "new", "v")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	files := make([]*os.File, len(s.segs))
	for i, seg := range s.segs {
		files[i] = seg.f
	}
	s.mu.Unlock()
	if len(files) != 4 {
		t.Fatalf("handle holds %d segments, want 4", len(files))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, err := f.Stat(); !errors.Is(err, os.ErrClosed) {
			t.Errorf("segment %s still open after Close (Stat error %v)", f.Name(), err)
		}
	}
	if _, ok := s.Get("new"); ok {
		t.Error("Get after Close hit")
	}
	if err := s.Put("later", []byte("v")); !errors.Is(err, ErrClosed) {
		t.Errorf("Put after Close = %v, want ErrClosed", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
	fresh := open(t, dir, 0)
	defer fresh.Close()
	for _, k := range []string{"old-0", "old-1", "old-2", "new"} {
		if _, ok := fresh.Get(k); !ok {
			t.Errorf("fresh handle misses synced %q", k)
		}
	}
}

// corruptions maps a name to a mutation of one record, at offset off of
// a segment whose bytes are seg, returning the segment's new bytes. Every
// mutation must degrade that key to a miss — never an error, never a
// wrong payload — and drop the record from the index so a re-Put heals
// the key.
var corruptions = map[string]func(seg []byte, off int) []byte{
	"truncated header": func(seg []byte, off int) []byte {
		return seg[:off+frameSize/2]
	},
	"truncated payload": func(seg []byte, _ int) []byte {
		return seg[:len(seg)-1]
	},
	"bad checksum": func(seg []byte, _ int) []byte {
		seg[len(seg)-1] ^= 0xff
		return seg
	},
	"wrong version": func(seg []byte, off int) []byte {
		seg[off+sha256.Size+7] ^= 0xff
		return seg
	},
	"bad magic": func(seg []byte, off int) []byte {
		seg[off+sha256.Size] = 'X'
		return seg
	},
	"empty file": func([]byte, int) []byte { return nil },
	// What an unsynced write can leave after a power loss: the record's
	// length on disk, but none of its data.
	"zeroed payload": func(seg []byte, off int) []byte {
		clear(seg[off:])
		return seg
	},
	// A record stored for another key at this offset.
	"wrong key": func(seg []byte, off int) []byte {
		seg[off] ^= 0xff
		return seg
	},
	// The frame holds a byte more than its length field states.
	"extra trailing bytes": func(seg []byte, off int) []byte {
		n := seg[off+sha256.Size+8 : off+sha256.Size+16]
		binary.BigEndian.PutUint64(n, binary.BigEndian.Uint64(n)-1)
		return seg
	},
}

// TestCorruptEntriesDegradeToMiss applies each corruption to the last
// record of a segment that holds other records before it, under the live
// handle that wrote it.
func TestCorruptEntriesDegradeToMiss(t *testing.T) {
	for name, mutate := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := open(t, t.TempDir(), 0)
			var hits, misses, corrupt testCounter
			s.Instrument(&hits, &misses, nil, nil, &corrupt)
			put(t, s, "before", "other")
			put(t, s, "k", "payload")
			path, off, _ := locate(s, "k")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, mutate(raw, int(off)), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, ok := s.Get("k"); ok {
				t.Fatalf("corrupt record returned a hit: %q", got)
			}
			if _, _, ok := locate(s, "k"); ok {
				t.Fatal("corrupt record not dropped from the index")
			}
			if corrupt.Value() != 1 || misses.Value() != 1 || hits.Value() != 0 {
				t.Fatalf("counters corrupt=%d misses=%d hits=%d, want 1, 1, 0",
					corrupt.Value(), misses.Value(), hits.Value())
			}
			// The key heals: a rewrite serves again.
			put(t, s, "k", "fresh")
			if got, ok := s.Get("k"); !ok || string(got) != "fresh" {
				t.Fatalf("healed key Get = %q, %v; want \"fresh\"", got, ok)
			}
		})
	}
}

// TestTornTailSurvivesReopen pins what a crash mid-Put leaves: a segment
// whose last frame is incomplete. A reopen serves every complete record
// before it, reads the torn one as a plain miss, and writes on.
func TestTornTailSurvivesReopen(t *testing.T) {
	// Cut inside the last record's frame, then inside its payload.
	for _, cut := range []int64{frameSize - 1, frameSize + 2} {
		dir := t.TempDir()
		s1 := open(t, dir, 0)
		put(t, s1, "a", "alpha")
		put(t, s1, "b", "beta")
		put(t, s1, "torn", "lost")
		path, off, _ := locate(s1, "torn")
		if err := os.Truncate(path, off+cut); err != nil {
			t.Fatal(err)
		}
		s2 := open(t, dir, 0)
		var corrupt testCounter
		s2.Instrument(nil, nil, nil, nil, &corrupt)
		for k, want := range map[string]string{"a": "alpha", "b": "beta"} {
			if got, ok := s2.Get(k); !ok || string(got) != want {
				t.Fatalf("cut at %d: Get(%s) = %q, %v; want %q", cut, k, got, ok, want)
			}
		}
		if _, ok := s2.Get("torn"); ok || corrupt.Value() != 0 {
			t.Fatalf("cut at %d: torn record served (%v) or counted corrupt (%d)", cut, ok, corrupt.Value())
		}
		if s2.SizeBytes() != off+cut {
			t.Fatalf("cut at %d: SizeBytes = %d, want %d", cut, s2.SizeBytes(), off+cut)
		}
		put(t, s2, "torn", "again")
		if got, ok := open(t, dir, 0).Get("torn"); !ok || string(got) != "again" {
			t.Fatalf("cut at %d: rewrite after reopen = %q, %v", cut, got, ok)
		}
	}
}

// TestEvictionKeepsRecentlyUsed pins LRU order across a compaction and
// across a reopen of the compacted store, and the accounting of both.
func TestEvictionKeepsRecentlyUsed(t *testing.T) {
	dir := t.TempDir()
	entry := int64(frameSize + 8)
	// Eight entries fit; a compaction keeps six (trimFraction = 1/4).
	s := open(t, dir, 8*entry)
	var evictions testCounter
	s.Instrument(nil, nil, nil, &evictions, nil)
	putAll := func(s *Store, keys ...string) {
		for _, k := range keys {
			put(t, s, k, "8bytes!!")
		}
	}
	check := func(s *Store, gone, kept []string) {
		t.Helper()
		for _, k := range gone {
			if _, ok := s.Get(k); ok {
				t.Fatalf("least-recently-used entry %s survived eviction", k)
			}
		}
		for _, k := range kept {
			if _, ok := s.Get(k); !ok {
				t.Fatalf("entry %s evicted out of LRU order", k)
			}
		}
		names, bytes := segments(t, dir)
		if len(names) != 1 || s.SizeBytes() != bytes || bytes != 6*entry {
			t.Fatalf("after compaction: %d segments of %d bytes, SizeBytes %d; want 1 of %d",
				len(names), bytes, s.SizeBytes(), 6*entry)
		}
	}
	putAll(s, "k0", "k1", "k2", "k3", "k4", "k5", "k6", "k7")
	s.Get("k0") // k2, k3 and k4 become the least recent
	s.Get("k1")
	putAll(s, "k8")
	check(s, []string{"k2", "k3", "k4"}, []string{"k5", "k6", "k7", "k0", "k1", "k8"})
	if evictions.Value() != 3 {
		t.Fatalf("evictions = %d, want 3", evictions.Value())
	}

	// The compacted segment holds k5, k6, k7, k0, k1, k8, least recent
	// first, and a reopen reads that order back: three more Puts evict
	// k5, k6 and k7.
	s2 := open(t, dir, 8*entry)
	putAll(s2, "k9", "k10", "k11")
	check(s2, []string{"k5", "k6", "k7"}, []string{"k0", "k1", "k8", "k9", "k10", "k11"})
}

func TestOversizeStoreIsUnboundedWhenZero(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	for i := 0; i < 50; i++ {
		put(t, s, fmt.Sprintf("k%d", i), strings.Repeat("x", 1024))
	}
	if n := s.Len(); n != 50 {
		t.Fatalf("unbounded store evicted: Len = %d, want 50", n)
	}
}

// TestConcurrentReadersWritersRace hammers one bounded store with
// overlapping readers, writers, and corruptors that overwrite a record's
// bytes on disk, under -race: every Get must return either the key's
// complete payload or a miss — never an error, a torn read, or another
// key's payload.
func TestConcurrentReadersWritersRace(t *testing.T) {
	s := open(t, t.TempDir(), 64*1024)
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
					// Overwrite the record's bytes out from underneath the
					// readers; they must degrade to a miss.
					if path, off, ok := locate(s, key); ok {
						if f, err := os.OpenFile(path, os.O_WRONLY, 0); err == nil {
							f.WriteAt([]byte("torn"), off+frameSize-4)
							f.Close()
						}
					}
				case g%2 == 0:
					if err := s.Put(key, payloadFor(k)); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				default:
					if got, ok := s.Get(key); ok && !bytes.Equal(got, payloadFor(k)) {
						t.Errorf("Get(%s) returned wrong payload %q", key, got)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWriteDuringEvictKeepsAccounting drives a bounded store with
// concurrent writers and readers so compactions run between their Puts.
// Once they settle, the tracked footprint must equal the bytes of the
// segment files — no leak, no phantom bytes — and sit within the bound.
func TestWriteDuringEvictKeepsAccounting(t *testing.T) {
	dir := t.TempDir()
	// Bound small enough that a compaction runs every couple of Puts.
	s := open(t, dir, 4096)
	payload := strings.Repeat("p", 512)
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
				if err := s.Put(key, []byte(payload)); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				s.Get(key)
			}
		}(g)
	}
	wg.Wait()

	_, onDisk := segments(t, dir)
	if tracked := s.SizeBytes(); tracked != onDisk {
		t.Fatalf("tracked size %d diverges from on-disk footprint %d", tracked, onDisk)
	}
	if max := s.Bound(); onDisk > max {
		t.Fatalf("footprint %d exceeds bound %d after eviction settled", onDisk, max)
	}
	if got := open(t, dir, 4096).SizeBytes(); got != onDisk {
		t.Fatalf("reopen SizeBytes %d, want %d", got, onDisk)
	}
}

// TestEvictorsAreSerialized pins that compactions from concurrent Puts on
// two handles over one directory never leave a handle's index pointing
// into a segment it unlinked: every entry a handle still indexes reads
// back, and each settles within its bound.
func TestEvictorsAreSerialized(t *testing.T) {
	dir := t.TempDir()
	handles := []*Store{open(t, dir, 2048), open(t, dir, 2048)}
	payload := make([]byte, 700) // two entries fit; a compaction keeps one
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := handles[g%2]
			for i := 0; i < 40; i++ {
				if err := s.Put(fmt.Sprintf("s%d-%d", g, i), payload); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, s := range handles {
		var corrupt testCounter
		s.Instrument(nil, nil, nil, nil, &corrupt)
		for g := 0; g < 4; g++ {
			for i := 0; i < 40; i++ {
				s.Get(fmt.Sprintf("s%d-%d", g, i))
			}
		}
		if corrupt.Value() != 0 || s.Len() == 0 {
			t.Fatalf("%d indexed entries unreadable, %d left", corrupt.Value(), s.Len())
		}
		if size, max := s.SizeBytes(), s.Bound(); size > max {
			t.Fatalf("size %d over bound %d after settling", size, max)
		}
	}
}

// TestReadOnlyHandleCreatesNoFile pins the lazy segment: a handle that
// only reads — hits, misses, Sync — leaves the directory as it found it.
func TestReadOnlyHandleCreatesNoFile(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	s.Get("absent")
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if names, _ := segments(t, dir); len(names) != 0 {
		t.Fatalf("read-only handle on an empty store created %v", names)
	}
	put(t, s, "k", "v")
	before, _ := segments(t, dir)
	r := open(t, dir, 0)
	r.Get("k")
	r.Get("absent")
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	if after, _ := segments(t, dir); len(after) != len(before) {
		t.Fatalf("read-only handle created a segment: %v, was %v", after, before)
	}
}

// TestHandlesSeeEntriesWrittenBeforeOpen pins cross-handle visibility:
// each handle sees what another wrote before it opened, and what another
// writes later is a miss, never an error or a wrong value, until a reopen.
func TestHandlesSeeEntriesWrittenBeforeOpen(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, 0)
	put(t, a, "a", "from a")
	b := open(t, dir, 0)
	put(t, b, "b", "from b")
	if got, ok := b.Get("a"); !ok || string(got) != "from a" {
		t.Fatalf("b.Get(a) = %q, %v; want \"from a\"", got, ok)
	}
	if got, ok := a.Get("b"); ok {
		t.Fatalf("a saw an entry written after it opened: %q", got)
	}
	a2 := open(t, dir, 0)
	for k, want := range map[string]string{"a": "from a", "b": "from b"} {
		if got, ok := a2.Get(k); !ok || string(got) != want {
			t.Fatalf("reopened a2.Get(%s) = %q, %v; want %q", k, got, ok, want)
		}
	}
}

// TestRemovedSegmentDegradesToMiss pins that Put assumes nothing it wrote
// before still exists: with the whole directory removed underneath, the
// writer keeps writing and serving its own entries, and a handle opened
// afterwards reads those entries as misses, never as errors.
func TestRemovedSegmentDegradesToMiss(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	put(t, s, "k", "first")
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	put(t, s, "k", "second")
	if got, ok := s.Get("k"); !ok || string(got) != "second" {
		t.Fatalf("writer Get after removal = %q, %v; want \"second\"", got, ok)
	}
	if err := s.Sync(); err == nil {
		t.Fatal("Sync of a removed directory reported success")
	}
	if got, ok := open(t, dir, 0).Get("k"); ok {
		t.Fatalf("entry in a removed segment served to a new handle: %q", got)
	}
	// A handle whose directory vanished before its first Put recreates it.
	fresh := open(t, filepath.Join(dir, "sub"), 0)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	put(t, fresh, "k", "third")
	if got, ok := open(t, fresh.Dir(), 0).Get("k"); !ok || string(got) != "third" {
		t.Fatalf("reopen after recreated directory = %q, %v; want \"third\"", got, ok)
	}
}

// FuzzStoreOpen writes arbitrary bytes as a segment, opens the store over
// it and reads a few keys: Open and Get must not panic, and a hit must
// return a payload whose complete, checksummed record is in the input.
func FuzzStoreOpen(f *testing.F) {
	rec := func(k, p string) []byte { return encode(sha256.Sum256([]byte(k)), []byte(p)) }
	valid := append(rec("a", "alpha"), rec("b", "beta")...)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(rec("a", "old"), valid...))
	f.Add([]byte{})
	f.Add([]byte("SOPT"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "0-fuzz"+segExt), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := open(t, dir, 0)
		defer func() {
			for _, seg := range s.segs {
				seg.f.Close()
			}
		}()
		for _, k := range []string{"a", "b", ""} {
			if p, ok := s.Get(k); ok && !bytes.Contains(data, rec(k, string(p))) {
				t.Fatalf("Get(%q) = %q, which no valid record in the input holds", k, p)
			}
		}
	})
}

// benchPuts is the number of entries a cold corpus study writes.
const benchPuts = 8896

// BenchmarkStorePut writes distinct keys with 165-byte payloads, the mean
// entry size of a cold corpus study, into an unbounded store.
func BenchmarkStorePut(b *testing.B) {
	s := open(b, b.TempDir(), 0)
	payload := make([]byte, 165)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put("bench\x00"+strconv.Itoa(i), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreGet reads back, through a freshly opened handle, the
// entries of a store holding as many as a cold corpus study writes.
func BenchmarkStoreGet(b *testing.B) {
	dir := b.TempDir()
	w := open(b, dir, 0)
	payload := make([]byte, 165)
	keys := make([]string, benchPuts)
	for i := range keys {
		keys[i] = "bench\x00" + strconv.Itoa(i)
		if err := w.Put(keys[i], payload); err != nil {
			b.Fatal(err)
		}
	}
	s := open(b, dir, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get(keys[i%benchPuts]); !ok {
			b.Fatal("warm entry missing")
		}
	}
}
