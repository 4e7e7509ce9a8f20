package serve

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/query"
)

// TestServeLazySessionCounters pins the unsharded lazy serving path: a
// Request.Lazy session reports Lazy on the result, skips questions under
// the default confidence config, and lands in the per-class lazy
// counters.
func TestServeLazySessionCounters(t *testing.T) {
	tier := newReplicaTier(t, 1, 12, Config{})
	ctx := context.Background()

	res, err := tier.Execute(ctx, Request{
		Statement: "SELECT Protein WHERE Dessert > 0.5",
		Lazy:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lazy {
		t.Fatal("Result.Lazy = false for a lazy session")
	}
	if res.QuestionsSkipped <= 0 {
		t.Fatalf("QuestionsSkipped = %d, want > 0 under the default confidence config", res.QuestionsSkipped)
	}
	cs := tier.Stats().Classes[DefaultClass]
	if cs.LazySessions != 1 {
		t.Fatalf("LazySessions = %d, want 1", cs.LazySessions)
	}
	if cs.QuestionsSkipped != res.QuestionsSkipped {
		t.Fatalf("class QuestionsSkipped = %d, result reported %d", cs.QuestionsSkipped, res.QuestionsSkipped)
	}
}

// TestServeOrderedRowsCarrySortKey: ordered statements surface the ORDER
// BY estimate on each row, in the requested direction; plain statements
// leave it zero.
func TestServeOrderedRowsCarrySortKey(t *testing.T) {
	tier := newReplicaTier(t, 1, 12, Config{})
	ctx := context.Background()

	res, err := tier.Execute(ctx, Request{Statement: "SELECT Calories ORDER BY Protein DESC LIMIT 4"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].SortKey > res.Rows[i-1].SortKey {
			t.Fatalf("rows not descending by SortKey: %v", res.Rows)
		}
	}
	plain, err := tier.Execute(ctx, Request{Statement: "SELECT Calories"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range plain.Rows {
		if r.SortKey != 0 {
			t.Fatalf("plain statement row carries SortKey %v", r.SortKey)
		}
	}
}

// TestShardedTopKMatchesUnsharded is the gather half of the ordered
// contract: for S∈{2,4} over S replica backends, a top-k session returns
// the same rows — IDs, values, sort keys, order — as the unsharded tier,
// and (eager path) the summed shard spend equals the unsharded bill.
// Each shard computes its local top k and MergeTopK restores the global
// order, so the pin holds for the eager engine, the pinned
// full-evaluation lazy mode, and the exact (Z=∞) short-circuit mode.
func TestShardedTopKMatchesUnsharded(t *testing.T) {
	const stmt = "SELECT Calories ORDER BY Protein DESC LIMIT 5"
	const nObj = 12
	ctx := context.Background()

	baseline := newReplicaTier(t, 1, nObj, Config{})
	want, err := baseline.Execute(ctx, Request{Statement: stmt})
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Rows) != 5 {
		t.Fatalf("unsharded top-k returned %d rows, want 5", len(want.Rows))
	}

	exact := &query.LazyConfig{ShortCircuit: true, Reorder: true, Z: math.Inf(1), TopKPrune: true}
	modes := []struct {
		name string
		cfg  Config
		req  Request
	}{
		{name: "eager", req: Request{Statement: stmt}},
		{name: "lazy-full", cfg: Config{Lazy: query.LazyFull()}, req: Request{Statement: stmt, Lazy: true}},
		{name: "lazy-exact", cfg: Config{Lazy: exact}, req: Request{Statement: stmt, Lazy: true}},
	}
	for _, mode := range modes {
		for _, shards := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/S=%d", mode.name, shards), func(t *testing.T) {
				cfg := mode.cfg
				cfg.Shards = shards
				cfg.Partition = PartitionHash
				tier := newReplicaTier(t, shards, nObj, cfg)
				got, err := tier.Execute(ctx, mode.req)
				if err != nil {
					t.Fatal(err)
				}
				if got.Shards != shards {
					t.Fatalf("Result.Shards = %d, want %d", got.Shards, shards)
				}
				if got.Lazy != mode.req.Lazy {
					t.Fatalf("Result.Lazy = %v, want %v", got.Lazy, mode.req.Lazy)
				}
				if !rowsEqual(want.Rows, got.Rows) {
					t.Fatalf("top-k rows diverged:\nunsharded: %+v\nsharded:   %+v", want.Rows, got.Rows)
				}
				for i := range got.Rows {
					if got.Rows[i].SortKey != want.Rows[i].SortKey {
						t.Fatalf("row %d SortKey %v, unsharded %v", i, got.Rows[i].SortKey, want.Rows[i].SortKey)
					}
				}
				if mode.name == "eager" && got.OnlineSpent != want.OnlineSpent {
					t.Fatalf("eager sharded spend %v, unsharded %v", got.OnlineSpent, want.OnlineSpent)
				}
			})
		}
	}
}

// TestShardedLazyTopKDefaultsMatchUnshardedLazy extends the gather pin
// to the default (finite-Z) lazy config: the sharded lazy session must
// return exactly the rows of the unsharded lazy session — per-object
// decisions depend only on that object's answer streams, shard-local
// top-k pruning is sound within each shard, and the ordered gather
// reassembles the global order.
func TestShardedLazyTopKDefaultsMatchUnshardedLazy(t *testing.T) {
	const stmt = "SELECT Calories ORDER BY Protein DESC LIMIT 5"
	const nObj = 12
	ctx := context.Background()

	baseline := newReplicaTier(t, 1, nObj, Config{})
	want, err := baseline.Execute(ctx, Request{Statement: stmt, Lazy: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			tier := newReplicaTier(t, shards, nObj, Config{Shards: shards, Partition: PartitionHash})
			got, err := tier.Execute(ctx, Request{Statement: stmt, Lazy: true})
			if err != nil {
				t.Fatal(err)
			}
			if !rowsEqual(want.Rows, got.Rows) {
				t.Fatalf("lazy top-k rows diverged:\nunsharded: %+v\nsharded:   %+v", want.Rows, got.Rows)
			}
			if cs := tier.Stats().Classes[DefaultClass]; cs.LazySessions != 1 {
				t.Fatalf("LazySessions = %d, want 1", cs.LazySessions)
			}
		})
	}
}
