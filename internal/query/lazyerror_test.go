package query_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

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
			ls := eng.Stats()
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
	want := refEng.Stats()

	sim, objs := newEnv()
	eng, err := query.NewEngine(valuePoison{Platform: sim, objectID: objs[poisonAt].ID}, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetLazy(lcfg)
	if _, err := eng.Execute(st, objs); err == nil {
		t.Fatal("poisoned execution succeeded")
	}
	got := eng.Stats()
	if got.QuestionsSkipped != want.QuestionsSkipped || got.ObjectsPruned != want.ObjectsPruned {
		t.Fatalf("aborted session books skipped %d pruned %d, completed-only run books %d and %d",
			got.QuestionsSkipped, got.ObjectsPruned, want.QuestionsSkipped, want.ObjectsPruned)
	}
}

// TestLazyShortBatchesErrorNotPanic pins the lazy evaluator's handling
// of a platform that returns fewer answers than were asked for. Over a
// bare fault injector, a batch shorter than the answers already taken
// is an error naming the attribute, and a platform that always comes
// back short cannot keep the evaluator asking forever: Execute returns
// an error in bounded time and never panics. A retry layer over the same
// injector hides the faults, so rows and spend equal the fault-free run.
func TestLazyShortBatchesErrorNotPanic(t *testing.T) {
	st := mustParse(t, "SELECT Calories WHERE Dessert > 0.5 ORDER BY Protein DESC LIMIT 5")
	plan := lazyPlan(t, st)
	newSim := func() (*crowd.SimPlatform, []*domain.Object) {
		sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return sim, sim.Universe().NewObjects(rand.New(rand.NewSource(17)), 24)
	}
	run := func(p crowd.Platform, objs []*domain.Object) (rows []query.ResultRow, err error) {
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			eng, nerr := query.NewEngine(p, plan, st)
			if nerr != nil {
				err = nerr
				return
			}
			eng.SetLazy(query.LazyDefaults())
			rows, err = eng.Execute(st, objs)
		}()
		select {
		case <-done:
			return rows, err
		case <-time.After(30 * time.Second):
			t.Fatal("lazy Execute over short batches did not return")
			return nil, nil
		}
	}

	for _, rate := range []float64{0.3, 1} {
		sim, objs := newSim()
		_, err := run(crowd.NewFaulty(sim, crowd.FaultyOptions{Seed: 3, ShortRate: rate}), objs)
		if err == nil {
			t.Fatalf("ShortRate %v: Execute succeeded over shrinking batches", rate)
		}
		if strings.HasPrefix(err.Error(), "panic") {
			t.Fatalf("ShortRate %v: %v", rate, err)
		}
	}

	clean, cleanObjs := newSim()
	want, err := run(clean, cleanObjs)
	if err != nil {
		t.Fatal(err)
	}
	sim, objs := newSim()
	retry := crowd.NewRetry(crowd.NewFaulty(sim, crowd.FaultyOptions{Seed: 3, ShortRate: 0.3}), crowd.RetryOptions{})
	got, err := run(retry, objs)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, want, "retry over short batches")
	if sim.Ledger().Spent() != clean.Ledger().Spent() {
		t.Fatalf("retry spend %v != fault-free %v", sim.Ledger().Spent(), clean.Ledger().Spent())
	}
}
