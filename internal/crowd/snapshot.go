package crowd

import (
	"sync/atomic"

	"repro/internal/domain"
)

// idAllocator hands out object ids for example objects a platform
// materializes. The root platform draws from the universe's live atomic
// counter (example objects really join the universe); a fork draws from a
// private counter starting at the snapshot's base, so it reproduces the id
// sequence a freshly built platform would assign without advancing the
// universe — which is what keeps concurrent forks independent and their
// answer streams bit-identical to rebuilt twins.
type idAllocator struct {
	u    *domain.Universe // non-nil: allocate from the live universe counter
	next atomic.Int64     // fork-private counter otherwise
}

func (a *idAllocator) alloc() int {
	if a.u != nil {
		return a.u.AllocID()
	}
	return int(a.next.Add(1) - 1)
}

func (a *idAllocator) peek() int {
	if a.u != nil {
		return a.u.PeekID()
	}
	return int(a.next.Load())
}

// SimSnapshot is a copy-on-write capture of a SimPlatform's answer store.
// Forks taken from it behave exactly like a freshly built platform with
// the same seed — fresh ledger, no questions asked, the same answers to
// every question — but share the snapshot's memoized answer pools
// read-only: an answer any sibling already caused to be simulated is
// reused, not regenerated (each fork still charges its own ledger for it,
// so budget accounting is identical to a rebuilt platform). Forking is
// cheap (no pools are copied) and concurrent forks never contend beyond
// the store's internal shard mutexes.
//
// The snapshot pins the universe's object-id watermark at capture time:
// each fork allocates example-object ids privately from that base. Objects
// must therefore not be allocated from the universe after the snapshot is
// taken if their ids are to stay distinct from fork-created example
// objects (the experiment harness creates all pilot/evaluation objects
// first, then snapshots).
type SimSnapshot struct {
	store  *simStore
	baseID int64
	prov   map[int]provEntry
}

// Snapshot captures the platform's shared answer store and id watermark.
// The parent platform remains fully usable; answers it generates after the
// snapshot still land in the shared store and benefit forks (memoization
// is append-only and every entry is a pure function of the seed and the
// question identity, so "later" answers are identical to the ones a fork
// would generate itself).
func (p *SimPlatform) Snapshot() *SimSnapshot {
	prov := make(map[int]provEntry)
	for i := range p.objShards {
		sh := &p.objShards[i]
		sh.mu.Lock()
		for id, e := range sh.prov {
			prov[id] = e
		}
		sh.mu.Unlock()
	}
	return &SimSnapshot{
		store:  p.store,
		baseID: int64(p.ids.peek()),
		prov:   prov,
	}
}

// Fork creates a new platform view over the snapshot's store: fresh
// ledger (with the store's configured BudgetLimit), no questions asked,
// object ids allocated from the snapshot's base. Safe to call
// concurrently; each fork is itself safe for concurrent use.
func (s *SimSnapshot) Fork() *SimPlatform {
	p := newView(s.store)
	p.ids.next.Store(s.baseID)
	// Objects the parent had materialized before the snapshot keep their
	// identity on the fork, so value questions about them reuse the
	// parent's answer streams.
	for id, e := range s.prov {
		sh := p.objShard(id)
		sh.mu.Lock()
		sh.prov[id] = e
		sh.mu.Unlock()
	}
	return p
}

// Fork is shorthand for p.Snapshot().Fork().
func (p *SimPlatform) Fork() *SimPlatform { return p.Snapshot().Fork() }

// ForkPlatform implements Platform.
func (p *SimPlatform) ForkPlatform() Platform { return p.Fork() }
