// Package store is a persistent, content-addressed on-disk cache: the
// durable layer under a measurement session's in-memory LRUs, so driver
// compiles and measurement scores survive process restarts and are shared
// across sessions (and across the sweepd daemon's clients). Keys are
// arbitrary strings; the store addresses each entry by the SHA-256 of its
// key, so keys may hold separators, NULs, or whole source texts.
//
// The store is a log. Each handle appends its entries as records to one
// segment file of its own, created on its first Put (a handle that only
// reads creates no file), and keeps an in-memory index from key hash to
// record. Open rebuilds the index by reading every segment in the
// directory once; where a key has several records, the last one read
// wins.
//
// Integrity comes before freshness: every record carries a versioned
// header with a payload checksum, and Get checks it on every read. A
// record that fails — truncated, zeroed, overwritten, or written by a
// different format version — is dropped from the index and reported as a
// miss, never as an error or a wrong value. A frame Open cannot parse
// ends that segment's scan: that is what a crash leaves at a segment's
// tail. The cached artefacts are deterministic recomputations, so
// degrading to a miss only costs time.
//
// Durability is group-committed. An entry is visible to its handle once
// Put returns, and durable across power loss once a later Sync returns:
// Put does not flush, and Sync fsyncs the handle's segment and the
// directory. A crash before Sync can leave a torn or zeroed tail, whose
// records then read as misses.
//
// Handles share a directory safely but see less of each other. A handle
// sees the entries that were on disk when it opened, plus its own; an
// entry another handle or process writes later is a miss for it, which
// costs a recomputation and never gives a wrong value.
//
// The store is size-bounded. Its footprint is the bytes of the segments
// the handle knows, superseded records included. Recency is an in-memory
// clock that every Put and hit advances. Past the bound, the handle
// compacts: it rewrites its most recent entries, least recent first, to
// a fresh segment below the bound, then unlinks every segment it
// replaced, so record order carries recency across a restart. A segment
// removed under a live writer turns that writer's later entries into
// misses for every other handle.
package store

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Version is the on-disk record format version. A frame with any other
// version ends its segment's scan, so a format change never misreads old
// state, it just recomputes. Version 1 stored one file per entry in
// shard directories; Open ignores those.
const Version = 2

// magic opens every record's entry header.
var magic = [4]byte{'S', 'O', 'P', 'T'}

// headerSize is the fixed entry header: magic, version (uint32 BE),
// payload length (uint64 BE), and the payload's SHA-256.
const headerSize = 4 + 4 + 8 + sha256.Size

// frameSize is a record's prologue: the key's SHA-256, then the entry
// header. The payload follows.
const frameSize = sha256.Size + headerSize

// segExt marks segment files.
const segExt = ".seg"

// trimFraction is the share of the bound a compaction frees below it, so
// a store at its bound does not rewrite itself on every Put.
const trimFraction = 0.25

// Counter is the event-sink interface Instrument accepts (anything with
// an atomic Add, such as a telemetry registry counter); keeping it an
// interface keeps this package dependency-free, mirroring internal/lru.
type Counter interface {
	Add(delta int64)
}

// segment is one append-only log file and its length in bytes.
type segment struct {
	f    *os.File
	size int64
}

// record locates a key's latest record and holds its recency.
type record struct {
	seg  *segment
	off  int64
	n    int64  // frame and payload bytes
	used uint64 // the clock at the record's last Put or hit
}

// Store is a size-bounded persistent key→blob cache. All methods are
// safe for concurrent use, and any number of handles, in any number of
// processes, may share one directory: each writes only its own segment.
type Store struct {
	dir string
	max int64 // bound on summed segment bytes; <= 0 means unbounded

	// mu guards the fields below and orders every segment read, write
	// and close, so one evictor at a time compacts.
	mu    sync.Mutex
	index map[[sha256.Size]byte]record
	segs  []*segment // every segment the index points into
	own   *segment   // the segment Put appends to; nil until the first Put
	size  int64      // summed bytes of segs
	clock uint64

	hits, misses, writes, evictions, corrupt Counter
}

// Open opens (creating if needed) a store rooted at dir, bounded to
// maxBytes of segment data (<= 0 means unbounded), and indexes every
// record on disk. It creates no segment until the first Put.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	names, err := os.ReadDir(dir) // sorted by name, so oldest segment first
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, max: maxBytes, index: map[[sha256.Size]byte]record{}}
	for _, e := range names {
		if e.IsDir() || !strings.HasSuffix(e.Name(), segExt) {
			continue
		}
		// A segment another handle compacted away since the listing, or
		// one this process may not read, holds only misses.
		if f, err := os.Open(filepath.Join(dir, e.Name())); err == nil {
			s.scan(f)
		}
	}
	return s, nil
}

// scan indexes a segment's records in order, up to the first frame whose
// magic, version or length is bad: a crashed writer's torn tail.
func (s *Store) scan(f *os.File) {
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return
	}
	seg := &segment{f: f, size: fi.Size()}
	s.segs = append(s.segs, seg)
	s.size += seg.size
	r := bufio.NewReader(f)
	var frame [frameSize]byte
	for off := int64(0); off+frameSize <= seg.size; {
		if _, err := io.ReadFull(r, frame[:]); err != nil {
			return
		}
		n, ok := payloadLen(frame[sha256.Size:])
		if !ok || n > uint64(seg.size-off-frameSize) {
			return
		}
		if _, err := r.Discard(int(n)); err != nil {
			return
		}
		s.clock++
		s.index[[sha256.Size]byte(frame[:sha256.Size])] = record{seg, off, frameSize + int64(n), s.clock}
		off += frameSize + int64(n)
	}
}

// Instrument wires store events to external counters — hits and misses
// on Get, completed writes on Put, evicted entries, and corrupt records
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

// Bound returns the configured maximum footprint in bytes (<= 0 means
// unbounded).
func (s *Store) Bound() int64 { return s.max }

// SizeBytes returns the footprint: the bytes of the segments the handle
// knows, superseded records included until a compaction drops them.
func (s *Store) SizeBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.size
}

// Len returns the number of entries the handle can serve.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Get returns the payload stored for key. A record that fails validation
// — unreadable, another key's, bad magic or version, wrong length,
// checksum mismatch — is dropped from the index and reported as a miss.
// A hit advances the entry's recency, so compaction keeps the warm
// working set.
func (s *Store) Get(key string) ([]byte, bool) {
	h := sha256.Sum256([]byte(key))
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.index[h]
	if !ok {
		s.count(s.misses, 1)
		return nil, false
	}
	buf := make([]byte, r.n)
	_, err := r.seg.f.ReadAt(buf, r.off)
	payload, ok := decode(buf, h)
	if err != nil || !ok {
		delete(s.index, h)
		s.count(s.corrupt, 1)
		s.count(s.misses, 1)
		return nil, false
	}
	s.clock++
	r.used = s.clock
	s.index[h] = r
	s.count(s.hits, 1)
	return payload, true
}

// Put stores payload under key by appending one record to the handle's
// segment with a single write. The entry is visible to this handle once
// Put returns, and durable once a later Sync returns; Put itself does not
// flush. When the footprint exceeds the bound, Put compacts.
func (s *Store) Put(key string, payload []byte) error {
	h := sha256.Sum256([]byte(key))
	buf := encode(h, payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.own == nil {
		seg, err := s.newSegment()
		if err != nil {
			return fmt.Errorf("store put: %w", err)
		}
		s.own = seg
		s.segs = append(s.segs, seg)
	}
	// WriteAt, not an O_APPEND write: the index must hold the offset the
	// record actually lands at, whatever else changed the file's length.
	if _, err := s.own.f.WriteAt(buf, s.own.size); err != nil {
		return fmt.Errorf("store put: %w", err)
	}
	s.clock++
	s.index[h] = record{s.own, s.own.size, int64(len(buf)), s.clock}
	s.own.size += int64(len(buf))
	s.size += int64(len(buf))
	s.count(s.writes, 1)
	if s.max > 0 && s.size > s.max {
		s.compact()
	}
	return nil
}

// Sync is the handle's durability point: every entry whose Put returned
// before Sync was called is on disk when Sync returns. It fsyncs the
// handle's own segment and the directory that names it, once for the
// whole group. The daemon calls it on graceful shutdown, and a library
// user calls it before exit when the entries must survive power loss.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.own == nil {
		return nil
	}
	if err := s.own.f.Sync(); err != nil {
		return fmt.Errorf("store sync: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("store sync: %w", err)
	}
	return nil
}

// newSegment creates an empty segment, and the directory if it was
// removed. Its name starts with the creation time, so a directory
// listing orders segments oldest first.
func (s *Store) newSegment() (*segment, error) {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(s.dir, fmt.Sprintf("%016x-*%s", time.Now().UnixNano(), segExt))
	if err != nil {
		return nil, err
	}
	return &segment{f: f}, nil
}

// compact keeps the most recent entries that fit in the bound less
// trimFraction of it: it writes them, least recent first, to a fresh
// segment, fsyncs that segment and the directory, then unlinks every
// segment the index pointed into. It runs with mu held. On a failure it
// leaves the store as it was, over its bound, for the next Put to retry.
func (s *Store) compact() {
	type live struct {
		h [sha256.Size]byte
		record
	}
	all := make([]live, 0, len(s.index))
	for h, r := range s.index {
		all = append(all, live{h, r})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].used < all[j].used })
	target := s.max - int64(float64(s.max)*trimFraction)
	cut, kept := len(all), int64(0)
	for cut > 0 && kept+all[cut-1].n <= target {
		cut--
		kept += all[cut].n
	}

	seg, err := s.newSegment()
	if err != nil {
		return
	}
	w := bufio.NewWriter(seg.f)
	index := make(map[[sha256.Size]byte]record, len(all)-cut)
	var buf []byte
	for _, l := range all[cut:] {
		buf = slices.Grow(buf[:0], int(l.n))[:l.n]
		if _, err := l.seg.f.ReadAt(buf, l.off); err != nil {
			continue // unreadable: the entry becomes a miss
		}
		w.Write(buf) // a write error sticks; Flush reports it
		index[l.h] = record{seg, seg.size, l.n, l.used}
		seg.size += l.n
	}
	err = w.Flush()
	if err == nil {
		err = seg.f.Sync()
	}
	if err == nil {
		err = syncDir(s.dir)
	}
	if err != nil {
		seg.f.Close()
		os.Remove(seg.f.Name())
		return
	}
	for _, old := range s.segs {
		old.f.Close()
		os.Remove(old.f.Name())
	}
	s.count(s.evictions, int64(cut))
	s.segs, s.own, s.index, s.size = []*segment{seg}, seg, index, seg.size
}

// syncDir fsyncs a directory, making the names in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func (s *Store) count(c Counter, n int64) {
	if c != nil {
		c.Add(n)
	}
}

// encode frames a payload as a record for key hash h: the hash, then the
// entry header (magic, version, payload length, the payload's SHA-256),
// then the payload.
func encode(h [sha256.Size]byte, payload []byte) []byte {
	buf := make([]byte, frameSize+len(payload))
	copy(buf, h[:])
	hdr := buf[sha256.Size:frameSize]
	copy(hdr[0:4], magic[:])
	binary.BigEndian.PutUint32(hdr[4:8], Version)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(hdr[16:], sum[:])
	copy(buf[frameSize:], payload)
	return buf
}

// payloadLen checks an entry header's magic and version and returns the
// payload length it states.
func payloadLen(hdr []byte) (uint64, bool) {
	if [4]byte(hdr[0:4]) != magic || binary.BigEndian.Uint32(hdr[4:8]) != Version {
		return 0, false
	}
	return binary.BigEndian.Uint64(hdr[8:16]), true
}

// decode validates a record read for key hash h and returns its payload.
// Every failure mode reports !ok: the caller treats the entry as absent.
func decode(rec []byte, h [sha256.Size]byte) ([]byte, bool) {
	if len(rec) < frameSize || [sha256.Size]byte(rec[:sha256.Size]) != h {
		return nil, false
	}
	n, ok := payloadLen(rec[sha256.Size:])
	if !ok || n != uint64(len(rec)-frameSize) {
		return nil, false
	}
	payload := rec[frameSize:]
	if sha256.Sum256(payload) != [sha256.Size]byte(rec[frameSize-sha256.Size:frameSize]) {
		return nil, false
	}
	return payload, true
}
