package query_test

import (
	"math"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/crowdhttp"
	"repro/internal/domain"
	"repro/internal/query"
)

// lazyEnv is one evaluation platform plus its objects and the ledger
// whose Spent() the pins compare.
type lazyEnv struct {
	platform crowd.Platform
	objects  []*domain.Object
	ledger   *crowd.Ledger
	cleanup  func()
}

// lazyFlavors builds fresh, bit-identical environments per call: the
// plain simulator and the batched remote platform (crowdhttp client over
// an HTTP test server) — the two platforms the full-evaluation pin must
// hold on.
func lazyFlavors(t *testing.T) map[string]func() lazyEnv {
	t.Helper()
	newSim := func() (*crowd.SimPlatform, []*domain.Object) {
		sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return sim, sim.Universe().NewObjects(rand.New(rand.NewSource(17)), 24)
	}
	return map[string]func() lazyEnv{
		"sim": func() lazyEnv {
			sim, objs := newSim()
			return lazyEnv{platform: sim, objects: objs, ledger: sim.Ledger(), cleanup: func() {}}
		},
		"batched-remote": func() lazyEnv {
			sim, objs := newSim()
			srv := crowdhttp.NewServer(sim)
			ts := httptest.NewServer(srv.Handler())
			for _, o := range objs {
				srv.RegisterObject(o)
			}
			client := crowdhttp.NewClient(ts.URL, ts.Client())
			return lazyEnv{platform: client, objects: objs, ledger: client.Ledger(), cleanup: ts.Close}
		},
	}
}

// lazyPlan preprocesses one plan on a throwaway simulator (pure function
// of the seed, shareable across runs).
func lazyPlan(t *testing.T, st *query.Statement) *core.Plan {
	t.Helper()
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Preprocess(sim, st.Query(), crowd.Cents(4), crowd.Dollars(30), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func mustParse(t *testing.T, s string) *query.Statement {
	t.Helper()
	st, err := query.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func sameRows(t *testing.T, got, want []query.ResultRow, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Object.ID != want[i].Object.ID {
			t.Fatalf("%s row %d: object %d vs %d", label, i, got[i].Object.ID, want[i].Object.ID)
		}
		if got[i].Key != want[i].Key {
			t.Fatalf("%s row %d: key %v vs %v", label, i, got[i].Key, want[i].Key)
		}
		for a, v := range want[i].Values {
			if got[i].Values[a] != v {
				t.Fatalf("%s row %d attr %q: %v vs %v", label, i, a, got[i].Values[a], v)
			}
		}
	}
}

// TestLazyFullBitEqualToEager is the golden determinism contract: the
// lazy engine in pinned full-evaluation mode (LazyFull — ordering,
// short-circuit, early termination and pruning all off) must be
// bit-equal to the eager engine — same rows, same estimates, same
// ledger Spent() to the mill — over the simulator and the batched
// remote platform, on a statement exercising WHERE, ORDER BY and LIMIT.
func TestLazyFullBitEqualToEager(t *testing.T) {
	st := mustParse(t, "SELECT Calories, Protein WHERE Dessert > 0.5 ORDER BY Protein DESC LIMIT 5")
	plan := lazyPlan(t, st)
	for name, build := range lazyFlavors(t) {
		t.Run(name, func(t *testing.T) {
			eager := build()
			defer eager.cleanup()
			engE, err := query.NewEngine(eager.platform, plan, st)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engE.Execute(st, eager.objects)
			if err != nil {
				t.Fatal(err)
			}
			wantSpent := eager.ledger.Spent()

			lazy := build()
			defer lazy.cleanup()
			engL, err := query.NewEngine(lazy.platform, plan, st)
			if err != nil {
				t.Fatal(err)
			}
			engL.SetLazy(query.LazyFull())
			got, err := engL.Execute(st, lazy.objects)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, got, want, "full mode")
			if gotSpent := lazy.ledger.Spent(); gotSpent != wantSpent {
				t.Fatalf("Spent() diverged: lazy %v != eager %v", gotSpent, wantSpent)
			}
			stats := engL.Stats()
			if stats.Objects != int64(len(lazy.objects)) || stats.QuestionsSkipped != 0 {
				t.Fatalf("full mode stats: %+v", stats)
			}
		})
	}
}

// TestLazyExactShortCircuitSameRows pins the exact lazy mode (Z = ∞:
// every decision at full per-attribute budget, so predicate outcomes
// equal the eager engine's): rows must be bit-equal and spend must
// never exceed the eager engine's. With this plan's dense least-squares
// regressions every sub-program reads the full support, so the spend is
// exactly equal — the skip gains come from the approximate mode's
// impact truncation (see TestLazyConfidenceEarlyTermination).
func TestLazyExactShortCircuitSameRows(t *testing.T) {
	st := mustParse(t, "SELECT Protein WHERE Dessert > 0.5")
	plan := lazyPlan(t, st)
	for name, build := range lazyFlavors(t) {
		t.Run(name, func(t *testing.T) {
			eager := build()
			defer eager.cleanup()
			engE, err := query.NewEngine(eager.platform, plan, st)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engE.Execute(st, eager.objects)
			if err != nil {
				t.Fatal(err)
			}
			wantSpent := eager.ledger.Spent()

			lazy := build()
			defer lazy.cleanup()
			engL, err := query.NewEngine(lazy.platform, plan, st)
			if err != nil {
				t.Fatal(err)
			}
			engL.SetLazy(&query.LazyConfig{ShortCircuit: true, Reorder: true, Z: math.Inf(1)})
			got, err := engL.Execute(st, lazy.objects)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, got, want, "exact lazy")
			gotSpent := lazy.ledger.Spent()
			if gotSpent > wantSpent {
				t.Fatalf("lazy spend %v above eager %v", gotSpent, wantSpent)
			}
			stats := engL.Stats()
			if stats.ObjectsShortCircuited == 0 {
				t.Fatalf("no short-circuiting happened: %+v", stats)
			}
			if len(want) > 0 && stats.ObjectsShortCircuited == stats.Objects {
				t.Fatalf("every object short-circuited yet rows survived: %+v", stats)
			}
		})
	}
}

// TestLazyTopKPruneSameRows pins the exact top-k prune: with Z = ∞ the
// sort-key bound is the exact estimate, so pruning drops only objects
// provably outside the top k — the returned rows stay bit-equal to the
// eager engine's while some candidates are pruned before their SELECT
// questions.
func TestLazyTopKPruneSameRows(t *testing.T) {
	st := mustParse(t, "SELECT Calories ORDER BY Protein DESC LIMIT 3")
	plan := lazyPlan(t, st)

	eager := lazyFlavors(t)["sim"]()
	engE, err := query.NewEngine(eager.platform, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engE.Execute(st, eager.objects)
	if err != nil {
		t.Fatal(err)
	}
	wantSpent := eager.ledger.Spent()

	lazy := lazyFlavors(t)["sim"]()
	engL, err := query.NewEngine(lazy.platform, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	engL.SetLazy(&query.LazyConfig{ShortCircuit: true, TopKPrune: true, Z: math.Inf(1)})
	got, err := engL.Execute(st, lazy.objects)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, got, want, "topk prune")
	if stats := engL.Stats(); stats.ObjectsPruned == 0 {
		t.Fatalf("no pruning happened: %+v", stats)
	}
	if gotSpent := lazy.ledger.Spent(); gotSpent > wantSpent {
		t.Fatalf("pruned run spent %v above eager %v", gotSpent, wantSpent)
	}
	// Ascending order must hold the same contract.
	stAsc := mustParse(t, "SELECT Calories ORDER BY Protein ASC LIMIT 3")
	eagerAsc := lazyFlavors(t)["sim"]()
	engEA, err := query.NewEngine(eagerAsc.platform, plan, stAsc)
	if err != nil {
		t.Fatal(err)
	}
	wantAsc, err := engEA.Execute(stAsc, eagerAsc.objects)
	if err != nil {
		t.Fatal(err)
	}
	lazyAsc := lazyFlavors(t)["sim"]()
	engLA, err := query.NewEngine(lazyAsc.platform, plan, stAsc)
	if err != nil {
		t.Fatal(err)
	}
	engLA.SetLazy(&query.LazyConfig{ShortCircuit: true, TopKPrune: true, Z: math.Inf(1)})
	gotAsc, err := engLA.Execute(stAsc, lazyAsc.objects)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, gotAsc, wantAsc, "topk prune asc")
}

// TestLazyConfidenceEarlyTermination runs the full default config
// (finite Z): the result is approximate by design, so the pin is on the
// accounting — every plan question is either asked or skipped, answers
// stop early on confident predicates, and the run stays deterministic
// across repeats (seeded platform, memoized answers).
func TestLazyConfidenceEarlyTermination(t *testing.T) {
	st := mustParse(t, "SELECT Calories WHERE Dessert > 0.5 ORDER BY Protein DESC LIMIT 5")
	plan := lazyPlan(t, st)
	_, counts, err := plan.Support()
	if err != nil {
		t.Fatal(err)
	}
	perObject := 0
	for _, n := range counts {
		perObject += n
	}

	run := func() ([]query.ResultRow, query.Stats, crowd.Cost) {
		env := lazyFlavors(t)["sim"]()
		eng, err := query.NewEngine(env.platform, plan, st)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetLazy(query.LazyDefaults())
		rows, err := eng.Execute(st, env.objects)
		if err != nil {
			t.Fatal(err)
		}
		return rows, eng.Stats(), env.ledger.Spent()
	}
	rows, stats, spent := run()
	if stats.Objects != 24 {
		t.Fatalf("Objects = %d", stats.Objects)
	}
	if got := stats.QuestionsAsked + stats.QuestionsSkipped; got != int64(perObject*24) {
		t.Fatalf("asked %d + skipped %d != budget %d", stats.QuestionsAsked, stats.QuestionsSkipped, perObject*24)
	}
	if stats.QuestionsSkipped == 0 || stats.PredicatesEarly == 0 {
		t.Fatalf("no early termination: %+v", stats)
	}
	if len(rows) == 0 || len(rows) > 5 {
		t.Fatalf("rows = %d, want 1..5", len(rows))
	}

	rows2, stats2, spent2 := run()
	if stats2 != stats || spent2 != spent {
		t.Fatalf("non-deterministic: %+v/%v vs %+v/%v", stats2, spent2, stats, spent)
	}
	sameRows(t, rows2, rows, "repeat")
}
