package serve

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/query"
)

// shardOutcome is one shard's contribution to a scattered session.
type shardOutcome struct {
	rows  []query.ResultRow
	spent crowd.Cost
	asked int64
	stats query.Stats
}

// executeSharded is the scatter-gather path of Tier.Execute: the
// partitioner splits the evaluation set by object ID, one plan build (or
// cache hit) serves every shard, and each shard runs the compiled online
// evaluation on a private COW session of its backend. Shards partition
// objects, never answers: every (object, attribute) answer stream is
// consumed by exactly one shard from cursor zero, so per-object
// estimates are bit-equal to the unsharded run and the summed online
// spend matches to the mill.
//
// Determinism caveat: shards are spread over the backends starting at
// the plan's home, so with several backends the estimates are bit-equal
// only when the backends are replicas (same simulator seed over the same
// universe) — which is how disq-serve configures a sharded tier.
func (t *Tier) executeSharded(req Request, st *query.Statement, objs []*domain.Object,
	bObj, bPrc crowd.Cost, key string, shards int, cm *classMetrics, start time.Time) (*Result, error) {
	parts := t.partitioner.Partition(objs, shards)

	// Build (or fetch) the one shard-independent plan on its home
	// backend, then release the build session before scattering — on a
	// mutex-serialized backend, holding it here would deadlock the
	// shards that need to acquire it below.
	idx := t.route(key)
	home := t.backends[idx]
	buildSess := home.acquire()
	plan, hit, err := t.plan(key, idx, home, buildSess, st, bObj, bPrc, cm)
	buildSess.release()
	if err != nil {
		return nil, err
	}

	// Scatter: one goroutine per non-empty shard, round-robin over the
	// backends starting at the plan's home (shard 0 reuses the answers
	// the build memoized there). Plain goroutines, not the shared worker
	// pool: the shards are latency-bound (each blocks on crowd round
	// trips), so they must overlap even on a single-slot pool host.
	outs := make([]shardOutcome, len(parts))
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for s, part := range parts {
		if len(part) == 0 {
			continue
		}
		shardObjs := make([]*domain.Object, len(part))
		for j, pi := range part {
			shardObjs[j] = objs[pi]
		}
		sb := t.backends[(idx+s)%len(t.backends)]
		wg.Add(1)
		go func(s int, sb *backend, shardObjs []*domain.Object) {
			defer wg.Done()
			outs[s], errs[s] = t.runShard(sb, plan, st, shardObjs, req)
		}(s, sb, shardObjs)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		cm.errors.Add(1)
		return nil, err
	}

	// Gather: plain statements merge back into evaluation order; ordered
	// statements take the rank-aware top-k gather, which reproduces the
	// unsharded engine's (key, evaluation-order) total sort — each shard
	// already returned its local top k, and the global top k is a subset
	// of their union.
	rank := make(map[int]int, len(objs))
	for i, o := range objs {
		rank[o.ID] = i
	}
	shardRows := make([][]query.ResultRow, len(outs))
	for s := range outs {
		shardRows[s] = outs[s].rows
	}
	var merged []query.ResultRow
	if st.Order != nil {
		merged = query.MergeTopK(rank, st.Order.Desc, st.Limit, shardRows...)
	} else {
		merged = query.MergeRows(rank, shardRows...)
	}

	cm.shardedSessions.Add(1)
	return t.result(req, st, plan, hit, home.name, merged, outs, cm, start), nil
}

// runShard evaluates one object partition on a private session of its
// backend. Every shard shares the tier's one answer memo: the replicas'
// deterministic answer streams make a mean cached by one shard
// bit-identical to what any other would have bought. Adaptive
// calibration and reallocation are scoped to the shard's partition — the
// sharded adaptive path trades the tier-wide savings pool for
// parallelism and is not bit-pinned. Lazy evaluation is per-object, so
// shard-local runs compose exactly: top-k pruning only tightens within a
// shard, and the ordered gather restores the global order from the
// local top-k's.
func (t *Tier) runShard(sb *backend, plan *core.Plan, st *query.Statement,
	shardObjs []*domain.Object, req Request) (shardOutcome, error) {
	sb.load.startSession()
	defer sb.load.endSession()
	sess := sb.acquire()
	defer sess.release()
	return t.evaluate(sb, sess, plan, st, shardObjs, req)
}
