// Package store is a persistent, content-addressed on-disk cache: the
// durable layer under a measurement session's in-memory LRUs, so driver
// compiles and measurement scores survive process restarts and are shared
// across sessions (and across the sweepd daemon's clients). Keys are
// arbitrary strings; the store addresses each entry by the SHA-256 of its
// key, sharded into subdirectories by hash prefix so no single directory
// grows with the corpus.
//
// Integrity comes before freshness: writes go to a temporary file in the
// entry's shard and are renamed into place atomically, every entry
// carries a versioned header with a payload checksum, and any entry that
// fails validation — truncated, zeroed, corrupted, or written by a
// different format version — is deleted and reported as a miss, never as
// an error or a wrong value. The cached artefacts are deterministic
// recomputations, so degrading to a miss only costs time.
//
// Durability is group-committed. An entry is visible to every reader once
// Put returns, and durable across power loss once a later Sync returns:
// Put does not flush, and Sync makes everything written before it durable
// with one filesystem flush. A crash before Sync can leave a renamed
// entry empty, zeroed or torn; its header or checksum check then fails
// and Get reports a miss, so an unsynced entry costs at most its
// recomputation.
//
// The store is size-bounded: when the on-disk footprint exceeds the
// bound, least-recently-accessed entries are evicted. Access recency is
// tracked by touching an entry's file times on every hit (classic atime
// is unreliable under noatime mounts, so the store maintains its own
// clock via Chtimes).
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Version is the on-disk entry format version. Entries with any other
// version are dropped as corrupt (a format change never misreads old
// state, it just recomputes).
const Version = 1

// magic opens every entry file; a file without it was never a complete
// store entry.
var magic = [4]byte{'S', 'O', 'P', 'T'}

// headerSize is the fixed entry prologue: magic, version (uint32 BE),
// payload length (uint64 BE), and the payload's SHA-256.
const headerSize = 4 + 4 + 8 + sha256.Size

// entryExt marks complete entries; temporary files use a different
// suffix so a crashed half-written temp file is never read as an entry.
const entryExt = ".sop"

// Counter is the event-sink interface Instrument accepts (anything with
// an atomic Add, such as a telemetry registry counter); keeping it an
// interface keeps this package dependency-free, mirroring internal/lru.
type Counter interface {
	Add(delta int64)
}

// Store is a size-bounded persistent key→blob cache. All methods are
// safe for concurrent use, including by multiple goroutines of multiple
// processes sharing the directory (writes are atomic renames; the only
// cross-process race is benign duplicated recomputation).
type Store struct {
	dir string
	max int64 // bound on summed file bytes; <= 0 means unbounded

	mu   sync.Mutex
	size int64 // tracked on-disk footprint (headers + payloads)

	// evictMu serializes evictors: without it two goroutines passing the
	// over-bound check together would walk and resync concurrently, each
	// clobbering the other's accounting.
	evictMu sync.Mutex

	hits, misses, writes, evictions, corrupt Counter
}

// tmpMaxAge is how old an orphaned put-*.tmp file must be before the
// eviction sweep deletes it. A live Put holds its temp file for
// milliseconds; anything this old was left by a crashed writer. The
// threshold keeps the sweep from racing a concurrent Put's rename.
const tmpMaxAge = time.Hour

// Open opens (creating if needed) a store rooted at dir, bounded to
// maxBytes of on-disk entry data (<= 0 means unbounded). The existing
// footprint is measured once at open; entries written by other processes
// afterwards are still readable but are not counted against this
// handle's bound until they are rewritten through it.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, max: maxBytes}
	size, err := s.scanSize()
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.size = size
	// A previous process may have crashed mid-Put; heal its orphaned
	// temp files now rather than waiting for eviction pressure.
	s.sweepStaleTemps(time.Now().Add(-tmpMaxAge))
	return s, nil
}

// Instrument wires store events to external counters — hits and misses
// on Get, completed writes on Put, evicted entries, and corrupt entries
// dropped — so a session surfaces store traffic uniformly through its
// telemetry registry. Any sink may be nil. Call before the store is
// shared; sinks observe events from then on.
func (s *Store) Instrument(hits, misses, writes, evictions, corrupt Counter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits, s.misses, s.writes, s.evictions, s.corrupt = hits, misses, writes, evictions, corrupt
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Bound returns the configured maximum on-disk footprint in bytes
// (<= 0 means unbounded).
func (s *Store) Bound() int64 { return s.max }

// SizeBytes returns the tracked on-disk footprint of complete entries.
func (s *Store) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Len walks the store and counts complete entries. It is an O(entries)
// directory walk, intended for tests and diagnostics, not hot paths.
func (s *Store) Len() int {
	n := 0
	s.walkEntries(func(string, fs.FileInfo) { n++ })
	return n
}

// pathFor maps a key to its entry file: the hex SHA-256 of the key,
// sharded by its first two characters. The key itself never appears on
// disk, so keys may contain separators, NULs, or whole source texts.
func (s *Store) pathFor(key string) (shardDir, path string) {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	shardDir = filepath.Join(s.dir, name[:2])
	return shardDir, filepath.Join(shardDir, name[2:]+entryExt)
}

// Get returns the payload stored for key. Any validation failure —
// missing file, short header, bad magic, wrong version, truncated
// payload, checksum mismatch — deletes the entry (if present) and
// reports a miss. A hit refreshes the entry's access time so eviction
// keeps the warm working set.
func (s *Store) Get(key string) ([]byte, bool) {
	_, path := s.pathFor(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		s.count(s.misses)
		return nil, false
	}
	payload, ok := decodeEntry(raw)
	if !ok {
		// Corrupt or foreign-format entry: drop it so the slot heals on
		// the next write, and account the freed bytes.
		s.dropFile(path, int64(len(raw)))
		s.count(s.corrupt)
		s.count(s.misses)
		return nil, false
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now) // LRU clock; best-effort
	s.count(s.hits)
	return payload, true
}

// Put stores payload under key, atomically: the entry is assembled in a
// temporary file in the destination shard and renamed into place, so
// concurrent readers see either the old complete entry or the new one,
// never a partial write. The entry is visible once Put returns and
// durable once a later Sync returns; Put itself does not flush. When the
// store exceeds its size bound, the least-recently-accessed entries are
// evicted after the write.
func (s *Store) Put(key string, payload []byte) error {
	shardDir, path := s.pathFor(key)
	entry := encodeEntry(payload)

	tmp, err := os.CreateTemp(shardDir, "put-*.tmp")
	if errors.Is(err, fs.ErrNotExist) {
		// The shard's first write, or its directory was removed under
		// the store (by hand or by another process): create it and retry.
		if err := os.MkdirAll(shardDir, 0o755); err != nil {
			return fmt.Errorf("store put: %w", err)
		}
		tmp, err = os.CreateTemp(shardDir, "put-*.tmp")
	}
	if err != nil {
		return fmt.Errorf("store put: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(entry); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("store put: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store put: %w", err)
	}

	// Account for an overwrite before the rename clobbers the old entry.
	var prev int64
	if fi, err := os.Stat(path); err == nil {
		prev = fi.Size()
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("store put: %w", err)
	}
	s.count(s.writes)

	s.mu.Lock()
	s.size += int64(len(entry)) - prev
	over := s.max > 0 && s.size > s.max
	s.mu.Unlock()
	if over {
		s.evict()
	}
	return nil
}

// Sync is the store's durability point: every entry whose Put returned
// before Sync was called — its data, its shard directory and its rename —
// is on disk when Sync returns. It commits them as one group with a
// single filesystem flush rather than one fsync per entry. The daemon
// calls it on graceful shutdown, and a library user calls it before exit
// when the entries must survive power loss.
func (s *Store) Sync() error {
	return s.flush()
}

// evict deletes least-recently-accessed entries until the footprint is
// back under the bound. Recency is the file mtime, which Get refreshes
// on every hit. One goroutine evicts at a time (evictMu; a second
// arrival leaves immediately — the running evictor's resync already
// accounts the bytes it added). The walk tolerates entries disappearing
// underneath it (another process). The sweep also removes orphaned
// temp files old enough that no live Put can still own them.
func (s *Store) evict() {
	if !s.evictMu.TryLock() {
		return
	}
	defer s.evictMu.Unlock()

	s.mu.Lock()
	if s.max <= 0 || s.size <= s.max {
		s.mu.Unlock()
		return
	}
	// Snapshot the tracked size before walking: the resync below must
	// preserve accounting deltas posted while the walk runs.
	walkStart := s.size
	s.mu.Unlock()

	s.sweepStaleTemps(time.Now().Add(-tmpMaxAge))

	type cand struct {
		path  string
		size  int64
		atime time.Time
	}
	var cands []cand
	s.walkEntries(func(path string, fi fs.FileInfo) {
		cands = append(cands, cand{path: path, size: fi.Size(), atime: fi.ModTime()})
	})
	sort.Slice(cands, func(i, j int) bool {
		if !cands[i].atime.Equal(cands[j].atime) {
			return cands[i].atime.Before(cands[j].atime)
		}
		return cands[i].path < cands[j].path
	})

	// Resync the tracked footprint to what the walk actually saw, so
	// cross-process writes neither leak accounting nor over-evict — but
	// keep the deltas concurrent Puts and drops posted since the walk
	// began (s.size - walkStart): those entries landed after the walk
	// read their shards, so they are real bytes the walk's total missed.
	// Overwriting with the bare total would silently shed them from the
	// accounting and let the store grow past its bound for good.
	total := int64(0)
	for _, c := range cands {
		total += c.size
	}
	s.mu.Lock()
	s.size = total + (s.size - walkStart)
	if s.size < 0 {
		s.size = 0
	}
	s.mu.Unlock()

	for _, c := range cands {
		s.mu.Lock()
		done := s.size <= s.max
		s.mu.Unlock()
		if done {
			break
		}
		if err := os.Remove(c.path); err == nil {
			s.mu.Lock()
			s.size -= c.size
			s.mu.Unlock()
			s.count(s.evictions)
		}
	}
}

// sweepStaleTemps removes put-*.tmp files last modified before cutoff:
// the half-written leftovers of crashed writers. They are invisible to
// Get and to the entry walk (wrong extension) but occupy disk forever if
// nothing deletes them. Temp bytes were never added to the tracked size,
// so removal adjusts no accounting.
func (s *Store) sweepStaleTemps(cutoff time.Time) {
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, shard.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() || filepath.Ext(f.Name()) != ".tmp" {
				continue
			}
			fi, err := f.Info()
			if err != nil || !fi.ModTime().Before(cutoff) {
				continue
			}
			_ = os.Remove(filepath.Join(s.dir, shard.Name(), f.Name()))
		}
	}
}

// dropFile removes a corrupt entry and releases its accounted bytes.
func (s *Store) dropFile(path string, size int64) {
	if err := os.Remove(path); err == nil {
		s.mu.Lock()
		s.size -= size
		if s.size < 0 {
			s.size = 0
		}
		s.mu.Unlock()
	}
}

// walkEntries visits every complete entry file under the store root.
func (s *Store) walkEntries(fn func(path string, fi fs.FileInfo)) {
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	for _, shard := range shards {
		if !shard.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, shard.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			if f.IsDir() || filepath.Ext(f.Name()) != entryExt {
				continue
			}
			fi, err := f.Info()
			if err != nil {
				continue
			}
			fn(filepath.Join(s.dir, shard.Name(), f.Name()), fi)
		}
	}
}

func (s *Store) scanSize() (int64, error) {
	total := int64(0)
	s.walkEntries(func(_ string, fi fs.FileInfo) { total += fi.Size() })
	return total, nil
}

func (s *Store) count(c Counter) {
	if c != nil {
		c.Add(1)
	}
}

// encodeEntry frames a payload with the store header: magic, version,
// payload length, and the payload's SHA-256.
func encodeEntry(payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	copy(buf[0:4], magic[:])
	binary.BigEndian.PutUint32(buf[4:8], Version)
	binary.BigEndian.PutUint64(buf[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(buf[16:16+sha256.Size], sum[:])
	copy(buf[headerSize:], payload)
	return buf
}

// decodeEntry validates a raw entry file and returns its payload. Every
// failure mode reports !ok: the caller treats the entry as absent.
func decodeEntry(raw []byte) ([]byte, bool) {
	if len(raw) < headerSize {
		return nil, false
	}
	if [4]byte(raw[0:4]) != magic {
		return nil, false
	}
	if binary.BigEndian.Uint32(raw[4:8]) != Version {
		return nil, false
	}
	n := binary.BigEndian.Uint64(raw[8:16])
	if n != uint64(len(raw)-headerSize) {
		return nil, false
	}
	payload := raw[headerSize:]
	sum := sha256.Sum256(payload)
	if sum != [sha256.Size]byte(raw[16:16+sha256.Size]) {
		return nil, false
	}
	return payload, true
}
