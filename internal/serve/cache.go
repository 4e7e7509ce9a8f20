package serve

import (
	"container/list"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// planCache is the LRU-bounded, single-flight plan cache. The identity of
// an entry is the serialized plan key (domain | sorted targets | B_obj |
// B_prc). Lookups of an entry another session is still building block on
// that build instead of preprocessing again — N concurrent identical
// queries pay for ONE core.Preprocess.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	order   *list.List // front = most recently used; ready entries only

	hits      atomic.Int64
	misses    atomic.Int64
	waits     atomic.Int64 // lookups coalesced onto an in-flight build
	evictions atomic.Int64
}

// cacheEntry is one plan, possibly only routed or still being built.
// route creates it to record the plan's home backend; the first
// getOrBuild claims it (building) and builds. ready is closed when
// plan/err are final; elem links the entry into the LRU order once it
// is ready (failed builds never enter the LRU — they are deleted so the
// next lookup retries).
type cacheEntry struct {
	key      string
	backend  int // index of the backend whose streams build the plan
	building bool
	ready    chan struct{}
	plan     *core.Plan
	err      error
	elem     *list.Element
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		entries: make(map[string]*cacheEntry),
		order:   list.New(),
	}
}

// route picks the backend of a session for key and records it as the
// plan's home in the same critical section: pick receives the home of
// the key's entry (routed, building or built), or -1 when there is none,
// in which case the pick becomes the home. Two first sessions of one
// key therefore cannot both see -1 and land on different backends. pick
// runs under the cache lock, so it must not block or use the cache.
func (c *planCache) route(key string, pick func(affinity int) int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		return pick(e.backend)
	}
	idx := pick(-1)
	c.entries[key] = &cacheEntry{key: key, backend: idx, ready: make(chan struct{})}
	return idx
}

// peek returns the ready plan for key without counting a hit or bumping
// recency.
func (c *planCache) peek(key string) (*core.Plan, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	c.mu.Unlock()
	if !ok {
		return nil, false
	}
	select {
	case <-e.ready:
		return e.plan, e.err == nil
	default:
		return nil, false
	}
}

// getOrBuild returns the cached plan for key, building it with build on a
// miss. hit reports whether the caller avoided running build itself —
// both a ready entry and joining another session's in-flight build count,
// since either way this session paid no preprocessing.
func (c *planCache) getOrBuild(key string, backend int, build func() (*core.Plan, error)) (plan *core.Plan, hit bool, err error) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if ok {
		select {
		case <-e.ready:
			// Ready: bump recency and return.
			c.hits.Add(1)
			c.order.MoveToFront(e.elem)
			c.mu.Unlock()
			return e.plan, true, e.err
		default:
		}
		if e.building {
			// In flight: wait for the builder.
			c.waits.Add(1)
			c.mu.Unlock()
			<-e.ready
			return e.plan, true, e.err
		}
	} else {
		e = &cacheEntry{key: key, ready: make(chan struct{})}
		c.entries[key] = e
	}
	// Claim the build: the entry is new, or only routed. The claimer
	// holds its session, so a routed entry never waits on a session that
	// is itself waiting for a backend.
	e.building, e.backend = true, backend
	c.misses.Add(1)
	c.mu.Unlock()

	e.plan, e.err = build()

	c.mu.Lock()
	if e.err != nil {
		// Failed builds are not cached: drop the entry so a later retry
		// preprocesses afresh. Waiters already joined still see the error.
		delete(c.entries, key)
	} else {
		e.elem = c.order.PushFront(e)
		for c.order.Len() > c.cap {
			oldest := c.order.Back()
			victim := oldest.Value.(*cacheEntry)
			c.order.Remove(oldest)
			delete(c.entries, victim.key)
			c.evictions.Add(1)
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return e.plan, false, e.err
}

// CacheStats is the plan cache's observability snapshot.
type CacheStats struct {
	Size          int   `json:"size"`
	Capacity      int   `json:"capacity"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	InflightWaits int64 `json:"inflight_waits"`
	Evictions     int64 `json:"evictions"`
}

func (c *planCache) stats() CacheStats {
	c.mu.Lock()
	size := c.order.Len()
	c.mu.Unlock()
	return CacheStats{
		Size:          size,
		Capacity:      c.cap,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		InflightWaits: c.waits.Load(),
		Evictions:     c.evictions.Load(),
	}
}
