package query_test

import (
	"testing"

	"repro/internal/query"
)

// TestReuseColdBitEqual pins the cache-cold contract: an eager engine
// resolving through an empty memo must be bit-equal to the memo-less
// engine — same rows, same estimates, same ledger Spent() to the mill —
// because the memo payment (adaptive.Answers.Full's buy) shapes its
// purchases exactly like the compiled plan's collectMeans. Holds on the simulator and the batched remote
// platform (whose batch shape the memo's pay must mirror).
func TestReuseColdBitEqual(t *testing.T) {
	st := mustParse(t, "SELECT Calories, Protein WHERE Dessert > 0.5 ORDER BY Protein DESC LIMIT 5")
	plan := lazyPlan(t, st)
	for name, build := range lazyFlavors(t) {
		t.Run(name, func(t *testing.T) {
			plain := build()
			defer plain.cleanup()
			engP, err := query.NewEngine(plain.platform, plan, st)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engP.Execute(st, plain.objects)
			if err != nil {
				t.Fatal(err)
			}
			wantSpent := plain.ledger.Spent()

			cold := build()
			defer cold.cleanup()
			engC, err := query.NewEngine(cold.platform, plan, st)
			if err != nil {
				t.Fatal(err)
			}
			memo := query.NewMapMemo()
			engC.SetReuse(memo)
			got, err := engC.Execute(st, cold.objects)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, got, want, "cold reuse")
			if gotSpent := cold.ledger.Spent(); gotSpent != wantSpent {
				t.Fatalf("cold Spent() diverged: reuse %v != plain %v", gotSpent, wantSpent)
			}
			if rs := engC.Stats(); rs.AnswersReused != 0 || rs.SpendSavedMills != 0 {
				t.Fatalf("cold run reported reuse: %+v", rs)
			}
			if memo.Len() == 0 {
				t.Fatal("cold run published nothing")
			}
		})
	}
}

// TestReuseWarmBitEqualLowerSpend pins the payoff: a second session over
// the same objects through the now-warm memo returns bit-equal rows at
// strictly lower spend, and its SpendSavedMills accounts for the
// difference exactly — saved plus actually-spent equals the memo-less
// bill to the mill.
func TestReuseWarmBitEqualLowerSpend(t *testing.T) {
	st := mustParse(t, "SELECT Calories, Protein WHERE Dessert > 0.5 ORDER BY Protein DESC LIMIT 5")
	plan := lazyPlan(t, st)
	for name, build := range lazyFlavors(t) {
		t.Run(name, func(t *testing.T) {
			plain := build()
			defer plain.cleanup()
			engP, err := query.NewEngine(plain.platform, plan, st)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engP.Execute(st, plain.objects)
			if err != nil {
				t.Fatal(err)
			}
			wantSpent := plain.ledger.Spent()

			memo := query.NewMapMemo()
			first := build()
			defer first.cleanup()
			eng1, err := query.NewEngine(first.platform, plan, st)
			if err != nil {
				t.Fatal(err)
			}
			eng1.SetReuse(memo)
			if _, err := eng1.Execute(st, first.objects); err != nil {
				t.Fatal(err)
			}

			warm := build()
			defer warm.cleanup()
			eng2, err := query.NewEngine(warm.platform, plan, st)
			if err != nil {
				t.Fatal(err)
			}
			eng2.SetReuse(memo)
			got, err := eng2.Execute(st, warm.objects)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, got, want, "warm reuse")
			gotSpent := warm.ledger.Spent()
			if gotSpent >= wantSpent {
				t.Fatalf("warm spend %v not below cold %v", gotSpent, wantSpent)
			}
			rs := eng2.Stats()
			if rs.AnswersReused == 0 {
				t.Fatalf("warm run reused nothing: %+v", rs)
			}
			if int64(gotSpent)+rs.SpendSavedMills != int64(wantSpent) {
				t.Fatalf("savings don't balance: spent %d + saved %d != cold %d",
					gotSpent, rs.SpendSavedMills, wantSpent)
			}
		})
	}
}

// TestReuseLazyPeekTurnsApproximateExact pins the lazy evaluator's memo
// probe: with a fully warmed memo every dependency resolves through Peek
// at the full-budget mean (half-width zero), so the approximate
// confidence mode makes exact decisions — rows bit-equal to the eager
// engine — while spending strictly less than its own cache-cold run.
func TestReuseLazyPeekTurnsApproximateExact(t *testing.T) {
	st := mustParse(t, "SELECT Protein WHERE Dessert > 0.5")
	plan := lazyPlan(t, st)
	lcfg := &query.LazyConfig{ShortCircuit: true, Reorder: true, Z: 1.96, MinAnswers: 2, Rounds: 4}
	for name, build := range lazyFlavors(t) {
		t.Run(name, func(t *testing.T) {
			plain := build()
			defer plain.cleanup()
			engP, err := query.NewEngine(plain.platform, plan, st)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engP.Execute(st, plain.objects)
			if err != nil {
				t.Fatal(err)
			}

			// Cache-cold lazy run: the baseline spend (and the memo warmer
			// is a separate eager session, as in the serving tier).
			cold := build()
			defer cold.cleanup()
			engC, err := query.NewEngine(cold.platform, plan, st)
			if err != nil {
				t.Fatal(err)
			}
			engC.SetLazy(lcfg)
			if _, err := engC.Execute(st, cold.objects); err != nil {
				t.Fatal(err)
			}
			coldSpent := cold.ledger.Spent()

			memo := query.NewMapMemo()
			warmer := build()
			defer warmer.cleanup()
			engW, err := query.NewEngine(warmer.platform, plan, st)
			if err != nil {
				t.Fatal(err)
			}
			engW.SetReuse(memo)
			if _, err := engW.Execute(st, warmer.objects); err != nil {
				t.Fatal(err)
			}

			warm := build()
			defer warm.cleanup()
			engL, err := query.NewEngine(warm.platform, plan, st)
			if err != nil {
				t.Fatal(err)
			}
			engL.SetLazy(lcfg)
			engL.SetReuse(memo)
			got, err := engL.Execute(st, warm.objects)
			if err != nil {
				t.Fatal(err)
			}
			sameRows(t, got, want, "warm lazy")
			warmSpent := warm.ledger.Spent()
			if warmSpent >= coldSpent {
				t.Fatalf("warm lazy spend %v not below cold lazy %v", warmSpent, coldSpent)
			}
			rs := engL.Stats()
			if rs.AnswersReused == 0 || rs.SpendSavedMills == 0 {
				t.Fatalf("warm lazy run reused nothing: %+v", rs)
			}
		})
	}
}

// TestReuseLazyFullPinned pins LazyFull against the memo: cache-cold it
// stays bit-equal to the eager engine in rows AND Spent(), and the lazy
// accounting invariant (asked + skipped = objects x budget) holds with
// reused answers booked as skipped, both cold and warm.
func TestReuseLazyFullPinned(t *testing.T) {
	st := mustParse(t, "SELECT Calories, Protein WHERE Dessert > 0.5 ORDER BY Protein DESC LIMIT 5")
	plan := lazyPlan(t, st)
	for name, build := range lazyFlavors(t) {
		t.Run(name, func(t *testing.T) {
			plain := build()
			defer plain.cleanup()
			engP, err := query.NewEngine(plain.platform, plan, st)
			if err != nil {
				t.Fatal(err)
			}
			want, err := engP.Execute(st, plain.objects)
			if err != nil {
				t.Fatal(err)
			}
			wantSpent := plain.ledger.Spent()

			run := func(memo query.AnswerMemo) (spent int64, ls, rs query.Stats) {
				env := build()
				defer env.cleanup()
				eng, err := query.NewEngine(env.platform, plan, st)
				if err != nil {
					t.Fatal(err)
				}
				eng.SetLazy(query.LazyFull())
				eng.SetReuse(memo)
				got, err := eng.Execute(st, env.objects)
				if err != nil {
					t.Fatal(err)
				}
				sameRows(t, got, want, "lazy-full reuse")
				return int64(env.ledger.Spent()), eng.Stats(), eng.Stats()
			}

			memo := query.NewMapMemo()
			coldSpent, coldLS, coldRS := run(memo)
			if coldSpent != int64(wantSpent) {
				t.Fatalf("cold lazy-full Spent() diverged: %v != %v", coldSpent, wantSpent)
			}
			if coldRS.AnswersReused != 0 {
				t.Fatalf("cold lazy-full reported reuse: %+v", coldRS)
			}
			total := coldLS.QuestionsAsked + coldLS.QuestionsSkipped

			warmSpent, warmLS, warmRS := run(memo)
			if warmSpent >= coldSpent {
				t.Fatalf("warm lazy-full spend %v not below cold %v", warmSpent, coldSpent)
			}
			if warmRS.AnswersReused == 0 {
				t.Fatalf("warm lazy-full reused nothing: %+v", warmRS)
			}
			if warmLS.QuestionsAsked+warmLS.QuestionsSkipped != total {
				t.Fatalf("accounting invariant broke: asked %d + skipped %d != %d",
					warmLS.QuestionsAsked, warmLS.QuestionsSkipped, total)
			}
			if warmLS.QuestionsSkipped < warmRS.AnswersReused {
				t.Fatalf("reused answers not booked as skipped: skipped %d < reused %d",
					warmLS.QuestionsSkipped, warmRS.AnswersReused)
			}
		})
	}
}
