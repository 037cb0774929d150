// Package qcache is a content-addressed evidence cache for the enactment
// data plane: service invocations whose response is a pure function of
// their request envelope (QA assertions, filter and split actions) are
// memoised under a digest of (service, operation, configuration, shard
// payload), so re-enacting a view over unchanged items — the repeated
// Figure-7 run, or the overlap region of consecutive sliding windows —
// answers from memory instead of re-invoking the service.
//
// The cache is bounded two ways: an LRU entry cap and an optional TTL.
// Concurrent identical lookups are coalesced singleflight-style — one
// caller computes, the rest wait for its result — so a fan-out of
// identical shards costs one upstream call, not N.
//
// Cached values are shared between callers and MUST be treated as
// immutable. The data plane stores response *services.Envelope values,
// which hand every consumer a fresh clone of their evidence maps, so the
// shared value is never written after insertion. Invocations whose result
// depends on state outside the envelope (data enrichment reads
// repositories; annotators write them) must not be cached — see
// DESIGN.md "Enactment data plane".
package qcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"
	"time"

	"qurator/internal/evidence"
	"qurator/internal/telemetry"
)

// Cache-level metrics, labelled by cache name so several caches (one per
// framework, plus test instances) stay distinguishable on /metrics.
var (
	cacheHits = telemetry.Default.CounterVec(
		"qurator_qcache_hits_total",
		"Content-addressed cache lookups answered from memory.",
		"cache")
	cacheMisses = telemetry.Default.CounterVec(
		"qurator_qcache_misses_total",
		"Content-addressed cache lookups that invoked the upstream compute.",
		"cache")
	cacheCoalesced = telemetry.Default.CounterVec(
		"qurator_qcache_coalesced_total",
		"Lookups that waited on an identical in-flight compute instead of issuing their own.",
		"cache")
	cacheEvictions = telemetry.Default.CounterVec(
		"qurator_qcache_evictions_total",
		"Entries dropped by the LRU bound or found expired by TTL.",
		"cache")
	cacheEntries = telemetry.Default.GaugeVec(
		"qurator_qcache_entries",
		"Entries currently resident in the cache.",
		"cache")
)

// Options parameterises a Cache.
type Options struct {
	// Name labels the cache's telemetry series (default "default").
	Name string
	// MaxEntries bounds the number of resident entries; the least
	// recently used entry is evicted beyond it (default 4096).
	MaxEntries int
	// TTL expires entries this long after insertion; 0 disables expiry.
	TTL time.Duration
}

// Outcome classifies one GetOrCompute call.
type Outcome int

const (
	// Miss: this caller ran the compute and populated the cache.
	Miss Outcome = iota
	// Hit: the value was resident and unexpired.
	Hit
	// Coalesced: an identical compute was in flight; this caller waited
	// for its result.
	Coalesced
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Miss:
		return "miss"
	case Hit:
		return "hit"
	case Coalesced:
		return "coalesced"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Stats is a point-in-time snapshot of a cache's counters.
type Stats struct {
	Hits, Misses, Coalesced, Evictions uint64
	Entries                            int
}

// entry is one cache slot. ready is closed when the compute finishes;
// until then val/err are unset and waiters block on it (singleflight).
type entry struct {
	ready   chan struct{}
	val     any
	err     error
	expires time.Time // zero = never
	elem    *list.Element
}

// Cache is a bounded content-addressed memo table with singleflight
// coalescing. Safe for concurrent use.
type Cache struct {
	name string
	max  int
	ttl  time.Duration

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // front = most recent; values are string keys

	hits, misses, coalesced, evictions atomic.Uint64
}

// New returns an empty cache.
func New(opts Options) *Cache {
	if opts.Name == "" {
		opts.Name = "default"
	}
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 4096
	}
	return &Cache{
		name:    opts.Name,
		max:     opts.MaxEntries,
		ttl:     opts.TTL,
		entries: make(map[string]*entry),
		lru:     list.New(),
	}
}

// Len returns the number of resident (computed) entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	entries := c.lru.Len()
	c.mu.Unlock()
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		Evictions: c.evictions.Load(),
		Entries:   entries,
	}
}

// GetOrCompute returns the value cached under key, computing it with fn
// on a miss. Concurrent calls for the same key run fn at most once: the
// first caller computes, later callers wait (or abandon the wait when
// their ctx ends — the compute itself is not cancelled, its result still
// lands in the cache for the next lookup). Errors are returned to every
// coalesced waiter but never cached: the next lookup recomputes.
func (c *Cache) GetOrCompute(ctx context.Context, key string, fn func() (any, error)) (any, Outcome, error) {
	now := time.Now()
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		select {
		case <-e.ready:
			// Computed. Expired entries fall through to recompute.
			if e.expires.IsZero() || now.Before(e.expires) {
				c.lru.MoveToFront(e.elem)
				c.mu.Unlock()
				c.hits.Add(1)
				cacheHits.With(c.name).Inc()
				return e.val, Hit, e.err
			}
			c.removeLocked(key, e)
			c.evictions.Add(1)
			cacheEvictions.With(c.name).Inc()
		default:
			// In flight: wait outside the lock.
			c.mu.Unlock()
			c.coalesced.Add(1)
			cacheCoalesced.With(c.name).Inc()
			select {
			case <-e.ready:
				return e.val, Coalesced, e.err
			case <-ctx.Done():
				return nil, Coalesced, ctx.Err()
			}
		}
	}
	e := &entry{ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.misses.Add(1)
	cacheMisses.With(c.name).Inc()

	val, err := fn()

	c.mu.Lock()
	e.val, e.err = val, err
	if err != nil {
		// Errors are not cached; drop the slot so the next call retries.
		delete(c.entries, key)
	} else {
		if c.ttl > 0 {
			e.expires = time.Now().Add(c.ttl)
		}
		e.elem = c.lru.PushFront(key)
		for c.lru.Len() > c.max {
			oldest := c.lru.Back()
			k := oldest.Value.(string)
			c.removeLocked(k, c.entries[k])
			c.evictions.Add(1)
			cacheEvictions.With(c.name).Inc()
		}
	}
	cacheEntries.With(c.name).Set(float64(c.lru.Len()))
	c.mu.Unlock()
	close(e.ready)
	return val, Miss, err
}

// removeLocked drops an entry; the caller holds c.mu.
func (c *Cache) removeLocked(key string, e *entry) {
	delete(c.entries, key)
	if e != nil && e.elem != nil {
		c.lru.Remove(e.elem)
		e.elem = nil
	}
	cacheEntries.With(c.name).Set(float64(c.lru.Len()))
}

// Key builds a content-addressed cache key: a SHA-256 digest over
// length-prefixed fields, so "ab"+"c" and "a"+"bc" never collide.
type Key struct {
	h       hash.Hash
	scratch [16]byte
}

// NewKey starts a key digest.
func NewKey() *Key { return &Key{h: sha256.New()} }

// Str mixes a string field into the digest.
func (k *Key) Str(s string) *Key {
	n := copy(k.scratch[:], fmt.Sprintf("%d:", len(s)))
	k.h.Write(k.scratch[:n])
	k.h.Write([]byte(s))
	return k
}

// Map mixes an evidence map's canonical encoding into the digest.
func (k *Key) Map(m *evidence.Map) *Key {
	// Hash writers never fail; WriteCanonical's error is structural only.
	_ = m.WriteCanonical(k.h)
	return k
}

// Sum finalises the digest as a hex string. The Key must not be reused.
func (k *Key) Sum() string { return hex.EncodeToString(k.h.Sum(nil)) }
