// Package lru provides a small, concurrency-safe, cost-bounded LRU cache.
// Session-scale sweeps use it to bound the lowering and variant-enumeration
// caches by variant count, so a long-lived measurement service holds the
// hot working set without growing memory with corpus size (the ROADMAP's
// eviction open item).
package lru

import (
	"container/list"
	"sync"
)

// Cache is a cost-bounded LRU map. Each entry carries an explicit cost
// (e.g. a variant set costs its unique-variant count); when the summed
// cost exceeds the bound, least-recently-used entries are evicted. A
// non-positive bound disables eviction. All methods are safe for
// concurrent use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	max      int
	cost     int
	order    *list.List // front = most recently used; values are *entry[K, V]
	items    map[K]*list.Element
	hits     int64
	misses   int64
	evicted  int64
	rejected int64

	// Optional external event sinks (see Instrument); nil when the cache
	// is uninstrumented.
	hitSink, missSink, evictSink, rejectSink Counter
}

// Counter is the event-sink interface Instrument accepts: anything with
// an atomic Add, such as a telemetry registry counter. Keeping it an
// interface keeps this package dependency-free.
type Counter interface {
	Add(delta int64)
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int
}

// New creates a cache bounded by maxCost total cost. maxCost <= 0 means
// unbounded.
func New[K comparable, V any](maxCost int) *Cache[K, V] {
	return &Cache[K, V]{
		max:   maxCost,
		order: list.New(),
		items: make(map[K]*list.Element),
	}
}

// Instrument wires cache events to external counters — hits and misses
// on Get, evictions and oversized-entry rejections on Add — so a session
// can surface every cache's traffic uniformly through one telemetry
// registry. Any sink may be nil. Call before the cache is shared; sinks
// observe events from then on (the internal Stats counters keep counting
// from zero regardless).
func (c *Cache[K, V]) Instrument(hits, misses, evictions, rejections Counter) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hitSink, c.missSink, c.evictSink, c.rejectSink = hits, misses, evictions, rejections
}

// Get returns the cached value and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		c.hits++
		if c.hitSink != nil {
			c.hitSink.Add(1)
		}
		return el.Value.(*entry[K, V]).val, true
	}
	c.misses++
	if c.missSink != nil {
		c.missSink.Add(1)
	}
	var zero V
	return zero, false
}

// Peek returns the cached value without marking it used or counting a
// hit or miss: a second look at a key whose Get was already counted.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Add inserts or refreshes an entry with the given cost, evicting the
// least-recently-used entries until the bound holds again. An entry whose
// own cost exceeds the bound is not stored at all: admitting it would
// either break the bound or immediately evict it, so the caller keeps the
// value unshared instead. Rejections are counted (Stats, and the
// Instrument rejection sink) — without that accounting, a bound smaller
// than the working set's largest entries reads as a 0%-hit mystery: the
// caller sees neither hit, miss, nor eviction, just a cache that never
// warms. Costs below 1 count as 1 so every entry makes eviction progress.
func (c *Cache[K, V]) Add(key K, val V, cost int) {
	if cost < 1 {
		cost = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > 0 && cost > c.max {
		c.rejected++
		if c.rejectSink != nil {
			c.rejectSink.Add(1)
		}
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[K, V])
		c.cost += cost - e.cost
		e.val, e.cost = val, cost
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val, cost: cost})
		c.cost += cost
	}
	for c.max > 0 && c.cost > c.max {
		back := c.order.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry[K, V])
		c.order.Remove(back)
		delete(c.items, e.key)
		c.cost -= e.cost
		c.evicted++
		if c.evictSink != nil {
			c.evictSink.Add(1)
		}
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Cost returns the summed cost of all cached entries.
func (c *Cache[K, V]) Cost() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cost
}

// Bound returns the configured maximum cost (<= 0 means unbounded).
func (c *Cache[K, V]) Bound() int { return c.max }

// Stats returns cumulative hit, miss, eviction, and rejection counts
// (rejections being Adds refused because a single entry's cost exceeded
// the bound).
func (c *Cache[K, V]) Stats() (hits, misses, evicted, rejected int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicted, c.rejected
}
