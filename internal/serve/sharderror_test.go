package serve

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/crowd"
	"repro/internal/domain"
)

// poisonValue fails every value question about one object. It cannot
// fork, so sessions serialize on the backend mutex and every value
// question reaches the poison.
type poisonValue struct {
	crowd.Platform
	objectID int
}

func (p poisonValue) Values(qs []crowd.ObjectValueQuestion) ([]crowd.ValueAnswers, error) {
	for _, q := range qs {
		if q.Object.ID == p.objectID {
			return nil, fmt.Errorf("poisoned object %d", q.Object.ID)
		}
	}
	return p.Platform.Values(qs)
}

func (p poisonValue) ForkPlatform() crowd.Platform { return nil }

// TestShardErrorKeepsLazyStatsClean is the regression pin for errored
// scattered lazy sessions: when one shard dies mid-evaluation (and
// errors.Join surfaces it), NO per-shard lazy savings may leak into the
// class counters — not the failing shard's partial counts and not the
// healthy shards' either, since the session produced no result to
// account. Errors counts exactly one failure for the whole scatter.
func TestShardErrorKeepsLazyStatsClean(t *testing.T) {
	u := domain.Recipes()
	objs := u.NewObjects(rand.New(rand.NewSource(7)), 12)
	cfg := Config{
		Domain:      "recipes",
		Objects:     objs,
		Shards:      3,
		Partition:   PartitionHash,
		DefaultBObj: crowd.Cents(4),
		DefaultBPrc: crowd.Dollars(6),
	}
	for i := 0; i < 2; i++ {
		sim, err := crowd.NewSim(u, crowd.SimOptions{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Backends = append(cfg.Backends, Backend{
			Name:     fmt.Sprintf("poisoned-%d", i),
			Platform: poisonValue{Platform: sim, objectID: objs[5].ID},
		})
	}
	tier, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := tier.Execute(ctx, Request{Statement: "SELECT Protein WHERE Dessert > 0.5", Lazy: true})
	if err == nil {
		t.Fatalf("poisoned scatter succeeded: %+v", res)
	}
	if !strings.Contains(err.Error(), "poisoned object") {
		t.Fatalf("unexpected error: %v", err)
	}
	cs := tier.Stats().Classes[DefaultClass]
	if cs.Errors != 1 {
		t.Fatalf("errors = %d, want 1", cs.Errors)
	}
	if cs.LazySessions != 0 || cs.ObjectsPruned != 0 || cs.QuestionsSkipped != 0 {
		t.Fatalf("errored scatter leaked lazy savings: %+v", cs)
	}
	if cs.Sessions != 0 {
		t.Fatalf("errored scatter counted as served: %+v", cs)
	}

	// A second, healthy query (the poisoned object excluded) must account
	// normally — the failure left no stuck state behind.
	ids := make([]int, 0, len(objs)-1)
	for _, o := range objs {
		if o.ID != objs[5].ID {
			ids = append(ids, o.ID)
		}
	}
	if _, err := tier.Execute(ctx, Request{Statement: "SELECT Protein WHERE Dessert > 0.5", Lazy: true, ObjectIDs: ids}); err != nil {
		t.Fatal(err)
	}
	cs = tier.Stats().Classes[DefaultClass]
	if cs.LazySessions != 1 || cs.Sessions != 1 || cs.Errors != 1 {
		t.Fatalf("healthy follow-up misaccounted: %+v", cs)
	}
}
