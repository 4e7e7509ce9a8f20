package query_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/query"
)

// valuePoison fails every value question about one object, leaving the
// rest of the platform untouched.
type valuePoison struct {
	crowd.Platform
	objectID int
}

func (p valuePoison) Values(qs []crowd.ObjectValueQuestion) ([]crowd.ValueAnswers, error) {
	for _, q := range qs {
		if q.Object.ID == p.objectID {
			return nil, fmt.Errorf("poisoned object %d", q.Object.ID)
		}
	}
	return p.Platform.Values(qs)
}

// TestLazyErrorDoesNotCountAbortedSkips is the accounting regression pin
// for an errored lazy session: when an object's evaluation dies mid-way,
// its unreached questions must NOT be booked as skipped — skipped counts
// only savings on objects that completed. Poisoning the first object
// means nothing completed, so the skip counters must read zero however
// far the aborted fetch got.
func TestLazyErrorDoesNotCountAbortedSkips(t *testing.T) {
	st := mustParse(t, "SELECT Protein WHERE Dessert > 0.5")
	plan := lazyPlan(t, st)
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	objs := sim.Universe().NewObjects(rand.New(rand.NewSource(17)), 8)
	for _, mode := range []struct {
		name string
		cfg  *query.LazyConfig
	}{
		{"confidence", &query.LazyConfig{ShortCircuit: true, Reorder: true, Z: 1.96, MinAnswers: 2, Rounds: 4}},
		{"full", query.LazyFull()},
	} {
		t.Run(mode.name, func(t *testing.T) {
			eng, err := query.NewEngine(valuePoison{Platform: sim, objectID: objs[0].ID}, plan, st)
			if err != nil {
				t.Fatal(err)
			}
			eng.SetLazy(mode.cfg)
			if _, err := eng.Execute(st, objs); err == nil {
				t.Fatal("poisoned execution succeeded")
			}
			ls := eng.LazyStats()
			if ls.QuestionsSkipped != 0 || ls.ObjectsPruned != 0 {
				t.Fatalf("aborted session booked savings: %+v", ls)
			}
		})
	}
}

// TestLazyErrorMidRunSkipsOnlyCompleted complements the zero pin: with
// the poison on a later object, the skip counters must equal what the
// same config books over exactly the objects that completed — the
// aborted object and the never-reached tail contribute nothing.
func TestLazyErrorMidRunSkipsOnlyCompleted(t *testing.T) {
	st := mustParse(t, "SELECT Protein WHERE Dessert > 0.5")
	plan := lazyPlan(t, st)
	lcfg := &query.LazyConfig{ShortCircuit: true, Reorder: true, Z: 1.96, MinAnswers: 2, Rounds: 4}
	const poisonAt = 4

	newEnv := func() (*crowd.SimPlatform, []*domain.Object) {
		sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return sim, sim.Universe().NewObjects(rand.New(rand.NewSource(17)), 8)
	}

	// Reference: the same config over only the objects that will complete.
	refSim, refObjs := newEnv()
	refEng, err := query.NewEngine(refSim, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	refEng.SetLazy(lcfg)
	if _, err := refEng.Execute(st, refObjs[:poisonAt]); err != nil {
		t.Fatal(err)
	}
	want := refEng.LazyStats()

	sim, objs := newEnv()
	eng, err := query.NewEngine(valuePoison{Platform: sim, objectID: objs[poisonAt].ID}, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetLazy(lcfg)
	if _, err := eng.Execute(st, objs); err == nil {
		t.Fatal("poisoned execution succeeded")
	}
	got := eng.LazyStats()
	if got.QuestionsSkipped != want.QuestionsSkipped || got.ObjectsPruned != want.ObjectsPruned {
		t.Fatalf("aborted session books skipped %d pruned %d, completed-only run books %d and %d",
			got.QuestionsSkipped, got.ObjectsPruned, want.QuestionsSkipped, want.ObjectsPruned)
	}
}
