package search

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"shaderopt/internal/gpu"
	"shaderopt/internal/isa"
	"shaderopt/internal/store"
	"shaderopt/internal/telemetry"
)

// This file is the session's persistence layer: the read-through /
// write-through glue between the in-memory LRUs and an optional
// internal/store on-disk cache (Options.Store). Two artefact families
// persist, exactly the two that dominate sweep cost and survive
// restarts soundly:
//
//   - driver compiles, keyed (vendor, ingestion format, canonical IR
//     fingerprint): a gpu.Compiled is a pure function of program
//     structure and the ingestion round trip at the pipeline's head,
//     and the canonical fingerprint is name-insensitive, so entries are
//     shared across sessions, processes, and frontends — and a platform
//     whose ingestion assignment changes can never read a stale entry
//     compiled under the old format;
//   - measurement scores, keyed (vendor, source hash, protocol): noise
//     streams are seeded from the source text, so the key must be the
//     text's hash — the same key the in-memory score cache uses — and
//     the protocol must be part of it, since every harness.Config field
//     changes the sampled score.
//
// Store payloads are deterministic recomputations; a corrupt or stale
// entry degrades to a miss inside the store, and a failed write-through
// degrades to not caching (counted on store.write_errors), so the
// persistent layer can only ever cost time, never correctness.

// storeCompilePrefix, storeMeasPrefix, and storeTriePrefix namespace the
// artefact families inside one store. Keys are hashed before hitting the
// disk, so the NUL separators are purely to make collisions impossible,
// not a file-naming concern.
const (
	storeCompilePrefix = "compile\x00"
	storeMeasPrefix    = "meas\x00"
	storeTriePrefix    = "trie\x00"
)

// storedCompiled is the serialized form of a gpu.Compiled: every field
// except the Platform pointer, which the reader re-attaches (the vendor
// is part of the store key, so an entry is only ever decoded for the
// platform that produced it).
type storedCompiled struct {
	Stats             isa.Stats
	Arith             float64
	LoadStore         float64
	Texture           float64
	Overhead          float64
	CyclesPerFragment float64
}

// protoKey renders the session's measurement protocol as a stable store
// key component. Every harness.Config field participates: two protocols
// differing in any knob sample different scores.
func (s *Session) protoKey() string {
	c := s.cfg
	return fmt.Sprintf("%d:%d:%d:%d:%d:%d",
		c.Fragments, c.DesktopDraws, c.MobileDraws, c.Frames, c.Repeats, c.Seed)
}

// compileStoreKey renders the store key for one driver compile: the
// vendor, its ingestion format, and the canonical fingerprint of the
// program the pipeline consumed.
func compileStoreKey(pl *gpu.Platform, fp string) string {
	return storeCompilePrefix + pl.Vendor + "\x00" + pl.Ingest + "\x00" + fp
}

// storeGetCompiled reads a persisted driver compile for (vendor,
// ingestion format, canonical fingerprint), re-attaching the platform.
// Absent store, any store miss, or an undecodable payload reports a
// miss.
func (s *Session) storeGetCompiled(pl *gpu.Platform, fp string) (*gpu.Compiled, bool) {
	if s.store == nil {
		return nil, false
	}
	payload, ok := s.store.Get(compileStoreKey(pl, fp))
	if !ok {
		return nil, false
	}
	var sc storedCompiled
	if err := json.Unmarshal(payload, &sc); err != nil {
		s.storeWriteErrs.Inc() // decode failure past the checksum: count, degrade to miss
		return nil, false
	}
	return &gpu.Compiled{
		Platform:          pl,
		Stats:             sc.Stats,
		Arith:             sc.Arith,
		LoadStore:         sc.LoadStore,
		Texture:           sc.Texture,
		Overhead:          sc.Overhead,
		CyclesPerFragment: sc.CyclesPerFragment,
	}, true
}

// storePutCompiled persists a driver compile. Write failures degrade to
// not caching.
func (s *Session) storePutCompiled(pl *gpu.Platform, fp string, c *gpu.Compiled) {
	if s.store == nil {
		return
	}
	payload, err := json.Marshal(storedCompiled{
		Stats:             c.Stats,
		Arith:             c.Arith,
		LoadStore:         c.LoadStore,
		Texture:           c.Texture,
		Overhead:          c.Overhead,
		CyclesPerFragment: c.CyclesPerFragment,
	})
	if err == nil {
		err = s.store.Put(compileStoreKey(pl, fp), payload)
	}
	if err != nil {
		s.storeWriteErrs.Inc()
	}
}

// storeGetScore reads a persisted measurement score for (vendor, source
// hash, protocol). The payload is the score's exact IEEE-754 bits, so a
// store round trip is bit-identical to the original measurement.
func (s *Session) storeGetScore(vendor, hash string) (float64, bool) {
	if s.store == nil {
		return 0, false
	}
	payload, ok := s.store.Get(storeMeasPrefix + vendor + "\x00" + hash + "\x00" + s.protoKey())
	if !ok || len(payload) != 8 {
		return 0, false
	}
	return math.Float64frombits(binary.BigEndian.Uint64(payload)), true
}

// storePutScore persists one measurement score.
func (s *Session) storePutScore(vendor, hash string, ns float64) {
	if s.store == nil {
		return
	}
	var payload [8]byte
	binary.BigEndian.PutUint64(payload[:], math.Float64bits(ns))
	if err := s.store.Put(storeMeasPrefix+vendor+"\x00"+hash+"\x00"+s.protoKey(), payload[:]); err != nil {
		s.storeWriteErrs.Inc()
	}
}

// trieStore is the third persisted artefact family: shared trie-node
// outcomes (core.TriePersist), keyed by the core-rendered transition key
// (step index + flag bit + canonical parent fingerprint — the step
// identity is in the key, so a reordered pipeline can never consume a
// stale entry). The payload is one no-op byte plus the child's canonical
// fingerprint, the whole of a shared-table entry, so a warm start reads
// back everything the table knew; a no-op skips the pass outright,
// and the usual degradation rules apply (corrupt entry → miss, failed
// write → not cached, both without affecting results).
type trieStore struct {
	st        *store.Store
	writeErrs *telemetry.Counter
}

func (t trieStore) GetNode(key string) (noop bool, childCFP string, ok bool) {
	payload, ok := t.st.Get(storeTriePrefix + key)
	if !ok || len(payload) < 1 || payload[0] > 1 {
		return false, "", false
	}
	return payload[0] == 1, string(payload[1:]), true
}

func (t trieStore) PutNode(key string, noop bool, childCFP string) {
	payload := make([]byte, 1+len(childCFP))
	if noop {
		payload[0] = 1
	}
	copy(payload[1:], childCFP)
	if err := t.st.Put(storeTriePrefix+key, payload); err != nil {
		t.writeErrs.Inc()
	}
}
