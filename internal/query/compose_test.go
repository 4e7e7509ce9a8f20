package query_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/query"
)

// composeRun is one Execute of an engine configured by the composition
// tests: its rows, its online spend and its counters.
type composeRun struct {
	rows  []query.ResultRow
	spent int64
	stats query.Stats
}

// composeExec runs st on a fresh environment with the given adaptive
// config, lazy config and memo (each nil when off).
func composeExec(t *testing.T, build func() lazyEnv, plan *core.Plan, st *query.Statement,
	acfg *adaptive.Config, lcfg *query.LazyConfig, memo query.AnswerMemo) composeRun {
	t.Helper()
	env := build()
	defer env.cleanup()
	eng, err := query.NewEngine(env.platform, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetAdaptive(acfg)
	eng.SetLazy(lcfg)
	eng.SetReuse(memo)
	rows, err := eng.Execute(st, env.objects)
	if err != nil {
		t.Fatal(err)
	}
	return composeRun{rows: rows, spent: int64(env.ledger.Spent()), stats: eng.Stats()}
}

// stopOnly is the adaptive evaluator with sequential stopping alone.
func stopOnly() adaptive.Config {
	cfg := adaptive.Defaults()
	cfg.Weight, cfg.Reallocate = false, false
	return cfg
}

// composeMode is one adaptive session the composition pins cover.
type composeMode struct {
	acfg adaptive.Config
	lcfg *query.LazyConfig
}

// composeModes are the everything-on and the stopping-only tunings, each
// eager and lazy.
func composeModes() map[string]composeMode {
	out := map[string]composeMode{}
	for name, acfg := range map[string]adaptive.Config{"defaults": adaptive.Defaults(), "stop-only": stopOnly()} {
		out[name] = composeMode{acfg, nil}
		out[name+"+lazy"] = composeMode{acfg, query.LazyDefaults()}
	}
	return out
}

// TestAdaptiveColdMemoEqualsMemoLess pins the cache-cold contract for
// adaptive sessions: with an empty memo attached, eager and lazy, they
// return the memo-less session's rows to the bit at its spend to the
// mill, and report no savings — answers the calibration pilot bought
// and Estimate reads back through the memo are not savings.
func TestAdaptiveColdMemoEqualsMemoLess(t *testing.T) {
	st := mustParse(t, "SELECT Calories WHERE Dessert > 0.5 ORDER BY Protein DESC LIMIT 5")
	plan := lazyPlan(t, st)
	for flavor, build := range lazyFlavors(t) {
		for mode, m := range composeModes() {
			t.Run(flavor+"/"+mode, func(t *testing.T) {
				want := composeExec(t, build, plan, st, &m.acfg, m.lcfg, nil)
				got := composeExec(t, build, plan, st, &m.acfg, m.lcfg, query.NewMapMemo())
				sameRows(t, got.rows, want.rows, "cold memo")
				if got.spent != want.spent {
					t.Fatalf("cold memo spent %d, memo-less %d", got.spent, want.spent)
				}
				if got.stats.SpendSavedMills != 0 || got.stats.AnswersReused != 0 {
					t.Fatalf("cold memo reported savings: %+v", got.stats)
				}
			})
		}
	}
}

// TestAdaptiveWarmMemoBilling pins the billing identity for adaptive
// sessions: the same session rerun on a fresh platform over the memo
// the cold run filled returns bit-equal rows, and its spend plus its
// SpendSavedMills is the cold spend to the mill.
func TestAdaptiveWarmMemoBilling(t *testing.T) {
	st := mustParse(t, "SELECT Calories WHERE Dessert > 0.5 ORDER BY Protein DESC LIMIT 5")
	plan := lazyPlan(t, st)
	for flavor, build := range lazyFlavors(t) {
		for mode, m := range composeModes() {
			t.Run(flavor+"/"+mode, func(t *testing.T) {
				memo := query.NewMapMemo()
				cold := composeExec(t, build, plan, st, &m.acfg, m.lcfg, memo)
				warm := composeExec(t, build, plan, st, &m.acfg, m.lcfg, memo)
				sameRows(t, warm.rows, cold.rows, "warm memo")
				if warm.spent >= cold.spent {
					t.Fatalf("warm spend %d not below cold %d", warm.spent, cold.spent)
				}
				if warm.spent+warm.stats.SpendSavedMills != cold.spent {
					t.Fatalf("savings don't balance: spent %d + saved %d != cold %d",
						warm.spent, warm.stats.SpendSavedMills, cold.spent)
				}
			})
		}
	}
}

// TestLazyAdaptiveDisabledEqualsLazy pins the composition's anchor: a
// lazy session over the fixed-budget evaluator is the lazy session —
// rows, spend and every counter — in every lazy mode.
func TestLazyAdaptiveDisabledEqualsLazy(t *testing.T) {
	stmts := []string{
		"SELECT Calories WHERE Dessert > 0.5 ORDER BY Protein DESC LIMIT 5",
		"SELECT Protein WHERE Dessert > 0.5 AND Calories < 250",
	}
	lazies := map[string]*query.LazyConfig{"defaults": query.LazyDefaults(), "full": query.LazyFull(),
		"exact-short-circuit": {ShortCircuit: true, Reorder: true, Z: math.Inf(1), TopKPrune: true}}
	off := adaptive.Disabled()
	for flavor, build := range lazyFlavors(t) {
		for i, stmt := range stmts {
			st := mustParse(t, stmt)
			plan := lazyPlan(t, st)
			for name, lcfg := range lazies {
				t.Run(fmt.Sprintf("%s/%d/%s", flavor, i, name), func(t *testing.T) {
					want := composeExec(t, build, plan, st, nil, lcfg, nil)
					got := composeExec(t, build, plan, st, &off, lcfg, nil)
					sameRows(t, got.rows, want.rows, "lazy + Disabled")
					if got.spent != want.spent || got.stats != want.stats {
						t.Fatalf("lazy + Disabled: spent %d %+v, lazy %d %+v", got.spent, got.stats, want.spent, want.stats)
					}
				})
			}
		}
	}
}

// TestLazyStopOnlyNoDearerThanLazy pins that sequential stopping only
// removes answers from a lazy session's settling of its survivors.
func TestLazyStopOnlyNoDearerThanLazy(t *testing.T) {
	stop := stopOnly()
	for flavor, build := range lazyFlavors(t) {
		for i, stmt := range []string{
			"SELECT Calories WHERE Dessert > 0.5 ORDER BY Protein DESC LIMIT 5",
			"SELECT Calories, Protein WHERE Dessert > 0.5",
		} {
			st := mustParse(t, stmt)
			plan := lazyPlan(t, st)
			t.Run(fmt.Sprintf("%s/%d", flavor, i), func(t *testing.T) {
				lazy := composeExec(t, build, plan, st, nil, query.LazyDefaults(), nil)
				both := composeExec(t, build, plan, st, &stop, query.LazyDefaults(), nil)
				if both.spent > lazy.spent {
					t.Fatalf("lazy + stop-only spent %d, lazy alone %d", both.spent, lazy.spent)
				}
			})
		}
	}
}

// TestLazyAdaptiveTruncatedPredicates runs a lazy + Defaults() statement
// whose truncated predicate leaves support attributes unasked, so
// reallocation meets attributes without a stopping test.
func TestLazyAdaptiveTruncatedPredicates(t *testing.T) {
	st := mustParse(t, "SELECT Protein WHERE Dessert > 0.5")
	plan := lazyPlan(t, st)
	cfg := adaptive.Defaults()
	for flavor, build := range lazyFlavors(t) {
		t.Run(flavor, func(t *testing.T) {
			run := composeExec(t, build, plan, st, &cfg, query.LazyDefaults(), nil)
			if run.stats.Objects == 0 || run.stats.QuestionsSkipped == 0 {
				t.Fatalf("lazy + Defaults counters: %+v", run.stats)
			}
		})
	}
}
