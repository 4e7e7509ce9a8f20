package serve

import (
	"context"
	"testing"

	"repro/internal/adaptive"
)

// composeStopOnly is the adaptive evaluator with sequential stopping
// alone.
func composeStopOnly() *adaptive.Config {
	cfg := adaptive.Defaults()
	cfg.Weight, cfg.Reallocate = false, false
	return &cfg
}

// composeStatements are a filter and a filtered top-k statement on which
// the test tier's lazy sessions ask the crowd.
var composeStatements = []string{
	"SELECT Protein WHERE Dessert > 0.5",
	"SELECT Calories WHERE Protein > 10 ORDER BY Protein DESC LIMIT 4",
}

// TestServeAdaptiveReuseComposes pins adaptive + reuse, eager and lazy,
// at the tier: a cache-cold session equals a cache-less tier's session
// (rows to the bit, OnlineSpent to the mill, nothing saved), and the
// same session rerun is served from the cache — bit-equal rows, and its
// OnlineSpent plus SpendSavedMills is the cold OnlineSpent.
func TestServeAdaptiveReuseComposes(t *testing.T) {
	ctx := context.Background()
	defaults := adaptive.Defaults()
	for _, stmt := range composeStatements {
		for name, acfg := range map[string]*adaptive.Config{"defaults": &defaults, "stop-only": composeStopOnly()} {
			for _, lazy := range []bool{false, true} {
				t.Run(stmt+"/"+name+map[bool]string{false: "", true: "+lazy"}[lazy], func(t *testing.T) {
					req := Request{Statement: stmt, Adaptive: true, Lazy: lazy, ReuseAnswers: true}
					want, err := newReplicaTier(t, 1, 16, Config{Adaptive: acfg}).Execute(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					tier := newReplicaTier(t, 1, 16, Config{Adaptive: acfg, AnswerCache: 1024})
					cold, err := tier.Execute(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					if !cold.Adaptive || cold.Lazy != lazy || !cold.Reuse {
						t.Fatalf("cold session flags: adaptive %v lazy %v reuse %v", cold.Adaptive, cold.Lazy, cold.Reuse)
					}
					serveRowsEqual(t, cold.Rows, want.Rows, "cold")
					if cold.OnlineSpent != want.OnlineSpent || cold.SpendSavedMills != 0 {
						t.Fatalf("cold spent %v saved %d, cache-less %v", cold.OnlineSpent, cold.SpendSavedMills, want.OnlineSpent)
					}
					warm, err := tier.Execute(ctx, req)
					if err != nil {
						t.Fatal(err)
					}
					serveRowsEqual(t, warm.Rows, want.Rows, "warm")
					if warm.OnlineSpent >= cold.OnlineSpent {
						t.Fatalf("warm spend %v not below cold %v", warm.OnlineSpent, cold.OnlineSpent)
					}
					if int64(warm.OnlineSpent)+warm.SpendSavedMills != int64(cold.OnlineSpent) {
						t.Fatalf("savings don't balance: %d + %d != %d", warm.OnlineSpent, warm.SpendSavedMills, cold.OnlineSpent)
					}
				})
			}
		}
	}
}

// TestServeLazyAdaptiveComposes pins adaptive + lazy at the tier: over
// the fixed-budget evaluator a lazy session is the lazy session (rows,
// spend and counters), stopping never makes it dearer, and a statement
// whose truncated predicate leaves support attributes unasked runs
// under the everything-on tuning.
func TestServeLazyAdaptiveComposes(t *testing.T) {
	ctx := context.Background()
	for _, stmt := range composeStatements {
		lazy, err := newReplicaTier(t, 1, 16, Config{}).Execute(ctx, Request{Statement: stmt, Lazy: true})
		if err != nil {
			t.Fatal(err)
		}
		off := adaptive.Disabled()
		both, err := newReplicaTier(t, 1, 16, Config{Adaptive: &off}).Execute(ctx, Request{Statement: stmt, Lazy: true, Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		serveRowsEqual(t, both.Rows, lazy.Rows, "lazy + Disabled")
		if both.OnlineSpent != lazy.OnlineSpent || both.ObjectsPruned != lazy.ObjectsPruned ||
			both.QuestionsSkipped != lazy.QuestionsSkipped || both.QuestionsSaved != lazy.QuestionsSkipped {
			t.Fatalf("lazy + Disabled %+v, lazy %+v", both, lazy)
		}
		stop, err := newReplicaTier(t, 1, 16, Config{Adaptive: composeStopOnly()}).Execute(ctx, Request{Statement: stmt, Lazy: true, Adaptive: true})
		if err != nil {
			t.Fatal(err)
		}
		if stop.OnlineSpent > lazy.OnlineSpent {
			t.Fatalf("lazy + stop-only spent %v, lazy alone %v", stop.OnlineSpent, lazy.OnlineSpent)
		}
	}
	res, err := newReplicaTier(t, 1, 16, Config{}).Execute(ctx, Request{Statement: "SELECT Protein WHERE Dessert > 0.5", Lazy: true, Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lazy || !res.Adaptive || res.QuestionsSkipped == 0 {
		t.Fatalf("lazy + Defaults session: %+v", res)
	}
}
