package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adaptive"
	"repro/internal/crowd"
	"repro/internal/query"
)

// answerCache is the tier's shared answer-reuse layer: it caches one
// answer prefix per (domain, attribute, object) — the values, plus their
// workers when a question asked for them — with single-flight fills, so
// concurrent sessions, and the per-shard sub-sessions of one scattered
// query, asking the same crowd question coalesce into one purchase. A
// prefix serves every question it holds enough answers for, so
// fixed-budget, lazy and adaptive sessions read one entry. Waiters on an
// in-flight fill count as hits: they pay nothing.
//
// Safety of reuse rests on the deterministic crowd: answer i of an
// (object, attribute) is a pure function of the key and i, so the cached
// copy is bit-identical to what a fresh purchase would return
// (adaptive.AnswerMemo documents the contract). The cache therefore
// changes spend, never output bits.
//
// Eviction is LRU over ready entries, bounded by cap; in-flight fills
// are never evictable (their fillers hold the only reference waiters
// block on). An optional TTL bounds staleness: entries older than ttl
// are dropped at lookup time and refilled by the next asker. Failed
// fills are deleted so retries refill; their waiters degrade to a direct
// uncached purchase.
type answerCache struct {
	mu      sync.Mutex
	cap     int
	ttl     time.Duration // 0 = entries never expire
	now     func() time.Time
	entries map[answerKey]*answerEntry
	order   *list.List // front = most recently used; ready entries only

	hits        atomic.Int64
	misses      atomic.Int64
	waits       atomic.Int64 // resolves coalesced onto an in-flight fill
	evictions   atomic.Int64
	expirations atomic.Int64
}

// answerKey identifies one cached answer prefix.
type answerKey struct {
	domain string
	attr   string
	object int
}

// answerEntry is one prefix, possibly still being bought. ready is
// closed when answers/failed are final; elem links the entry into the
// LRU order once it is ready. Entries are immutable after ready closes,
// so readers holding a pointer across an eviction or a replacement stay
// safe.
type answerEntry struct {
	key     answerKey
	ready   chan struct{}
	answers crowd.ValueAnswers
	failed  bool
	filled  time.Time
	elem    *list.Element
}

func newAnswerCache(capacity int, ttl time.Duration, now func() time.Time) *answerCache {
	return &answerCache{
		cap:     capacity,
		ttl:     ttl,
		now:     now,
		entries: make(map[answerKey]*answerEntry),
		order:   list.New(),
	}
}

// payFunc buys a batch of value questions from the crowd.
type payFunc = func([]crowd.ObjectValueQuestion) ([]crowd.ValueAnswers, error)

// memoFor adapts the cache to the query engine's AnswerMemo interface,
// scoped to one domain.
func (c *answerCache) memoFor(domain string) query.AnswerMemo {
	return domainMemo{c: c, domain: domain}
}

type domainMemo struct {
	c      *answerCache
	domain string
}

func (m domainMemo) Resolve(qs []crowd.ObjectValueQuestion, pay payFunc) ([]crowd.ValueAnswers, []bool, error) {
	return m.c.resolve(m.domain, qs, pay)
}

// lookupLocked finds key's live entry, enforcing the TTL: a ready entry
// older than ttl is removed and reported absent so the caller refills.
// c.mu must be held.
func (c *answerCache) lookupLocked(k answerKey) (*answerEntry, bool) {
	e, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	if c.ttl > 0 && e.elem != nil && c.now().Sub(e.filled) > c.ttl {
		c.order.Remove(e.elem)
		delete(c.entries, k)
		c.expirations.Add(1)
		return nil, false
	}
	return e, true
}

// settleLocked finalizes a filled entry into the LRU order, evicting
// beyond capacity. c.mu must be held; the caller closes ready after
// releasing the lock.
func (c *answerCache) settleLocked(e *answerEntry, answers crowd.ValueAnswers) {
	e.answers = answers
	e.filled = c.now()
	e.elem = c.order.PushFront(e)
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		victim := oldest.Value.(*answerEntry)
		c.order.Remove(oldest)
		delete(c.entries, victim.key)
		c.evictions.Add(1)
	}
}

// resolve is the single-flight batch lookup behind AnswerMemo.Resolve.
// It runs in three phases to stay deadlock-free across sessions that
// claim overlapping question sets in different orders: (1) classify
// every question under one lock pass into hit / claim (this session
// fills, replacing a ready prefix too short to serve it) / join (wait on
// an in-flight fill — another session's, or this call's own claim of a
// key asked twice); (2) pay for and settle ALL own claims — closing
// their ready channels — before (3) waiting on any join. Because every
// session publishes its claims before it blocks, the cross-session wait
// graph is acyclic. Joins whose fill failed or bought too short a prefix
// degrade to a direct uncached purchase.
func (c *answerCache) resolve(domain string, qs []crowd.ObjectValueQuestion, pay payFunc) ([]crowd.ValueAnswers, []bool, error) {
	out := make([]crowd.ValueAnswers, len(qs))
	reused := make([]bool, len(qs))
	entries := make([]*answerEntry, len(qs)) // each claim's or join's entry
	var claims, joins []int

	c.mu.Lock()
	for i, q := range qs {
		k := answerKey{domain: domain, attr: q.Attr, object: q.Object.ID}
		e, ok := c.lookupLocked(k)
		switch {
		case ok && e.elem == nil:
			c.waits.Add(1)
			joins = append(joins, i)
		case ok && adaptive.Serves(e.answers, q):
			out[i], reused[i] = e.answers, true
			c.hits.Add(1)
			c.order.MoveToFront(e.elem)
			continue
		default:
			if ok { // too short to serve q: this fill replaces it
				c.order.Remove(e.elem)
			}
			e = &answerEntry{key: k, ready: make(chan struct{})}
			c.entries[k] = e
			c.misses.Add(1)
			claims = append(claims, i)
		}
		entries[i] = e
	}
	c.mu.Unlock()

	if len(claims) > 0 {
		paid, err := pay(pick(qs, claims))
		c.mu.Lock()
		for n, i := range claims {
			if e := entries[i]; err != nil {
				e.failed = true
				delete(c.entries, e.key)
			} else {
				out[i] = paid[n]
				c.settleLocked(e, paid[n])
			}
		}
		c.mu.Unlock()
		for _, i := range claims {
			close(entries[i].ready)
		}
		if err != nil {
			return nil, nil, err
		}
	}

	// Own claims are settled; joining other sessions' fills cannot cycle.
	var retry []int
	for _, i := range joins {
		e := entries[i]
		<-e.ready
		if e.failed || !adaptive.Serves(e.answers, qs[i]) {
			retry = append(retry, i)
			continue
		}
		out[i], reused[i] = e.answers, true
		c.hits.Add(1)
	}
	if len(retry) > 0 {
		// Buy these directly, uncached: a failed filler's error likely
		// persists, so do not trap new waiters on it.
		paid, err := pay(pick(qs, retry))
		if err != nil {
			return nil, nil, err
		}
		for n, i := range retry {
			out[i] = paid[n]
		}
	}
	return out, reused, nil
}

// pick returns the questions of qs at the given indices.
func pick(qs []crowd.ObjectValueQuestion, at []int) []crowd.ObjectValueQuestion {
	out := make([]crowd.ObjectValueQuestion, len(at))
	for n, i := range at {
		out[n] = qs[i]
	}
	return out
}

// AnswerCacheStats is the answer cache's observability snapshot.
type AnswerCacheStats struct {
	Size          int   `json:"size"`
	Capacity      int   `json:"capacity"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	InflightWaits int64 `json:"inflight_waits"`
	Evictions     int64 `json:"evictions"`
	Expirations   int64 `json:"expirations"`
}

func (c *answerCache) stats() AnswerCacheStats {
	c.mu.Lock()
	size := c.order.Len()
	c.mu.Unlock()
	return AnswerCacheStats{
		Size:          size,
		Capacity:      c.cap,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		InflightWaits: c.waits.Load(),
		Evictions:     c.evictions.Load(),
		Expirations:   c.expirations.Load(),
	}
}
