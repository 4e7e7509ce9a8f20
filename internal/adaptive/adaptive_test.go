package adaptive_test

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
)

// evalEnv builds a fresh sim + plan + objects for one adaptive run.
func evalEnv(t *testing.T, seed int64, n int) (*crowd.SimPlatform, *core.Plan, []*domain.Object) {
	t.Helper()
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Preprocess(sim, core.Query{Targets: []string{"Protein"}},
		crowd.Cents(4), crowd.Dollars(20), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sim, plan, sim.Universe().NewObjects(rand.New(rand.NewSource(seed^0x5ca1e)), n)
}

// onlineSpent reads the online spend: core.Preprocess runs on its own
// swapped-in ledger, so the platform's ledger holds only online charges.
func onlineSpent(l *crowd.Ledger, _ *core.Plan) crowd.Cost {
	return l.Spent()
}

func TestStoppingSavesSpend(t *testing.T) {
	// Fixed baseline.
	simF, plan, objsF := evalEnv(t, 31, 48)
	for _, o := range objsF {
		if _, err := plan.EstimateObject(simF, o); err != nil {
			t.Fatal(err)
		}
	}
	fixedSpend := onlineSpent(simF.Ledger(), plan)

	// Adaptive with stopping only (no weighting, no reallocation) on an
	// identical twin platform.
	simA, _, objsA := evalEnv(t, 31, 48)
	cfg := adaptive.Defaults()
	cfg.Weight, cfg.Reallocate = false, false
	ev, err := adaptive.New(simA, plan, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objsA {
		if _, err := ev.Estimate(o); err != nil {
			t.Fatal(err)
		}
	}
	adaptiveSpend := onlineSpent(simA.Ledger(), plan)

	if adaptiveSpend >= fixedSpend {
		t.Fatalf("stopping saved nothing: adaptive %v vs fixed %v", adaptiveSpend, fixedSpend)
	}
	st := ev.Stats()
	if st.QuestionsSkipped <= 0 {
		t.Fatalf("Stats().QuestionsSkipped = %d, want > 0", st.QuestionsSkipped)
	}
	if st.Boosted != 0 {
		t.Fatalf("Stats().Boosted = %d without reallocation", st.Boosted)
	}
	t.Logf("online spend: fixed %v, adaptive %v (saved %d questions)", fixedSpend, adaptiveSpend, st.QuestionsSkipped)
}

func TestReallocationNeverExceedsFixedSpend(t *testing.T) {
	simF, plan, objsF := evalEnv(t, 32, 48)
	for _, o := range objsF {
		if _, err := plan.EstimateObject(simF, o); err != nil {
			t.Fatal(err)
		}
	}
	fixedSpend := onlineSpent(simF.Ledger(), plan)

	simA, _, objsA := evalEnv(t, 32, 48)
	ev, err := adaptive.New(simA, plan, adaptive.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Calibrate(objsA); err != nil {
		t.Fatal(err)
	}
	for _, o := range objsA {
		if _, err := ev.Estimate(o); err != nil {
			t.Fatal(err)
		}
	}
	adaptiveSpend := onlineSpent(simA.Ledger(), plan)
	if adaptiveSpend > fixedSpend {
		t.Fatalf("reallocation overspent: adaptive %v > fixed %v", adaptiveSpend, fixedSpend)
	}
	st := ev.Stats()
	if st.QuestionsSkipped < st.Boosted {
		t.Fatalf("boosted %d questions from only %d saved", st.Boosted, st.QuestionsSkipped)
	}
}

func TestCalibrateScoresWorkersOnSim(t *testing.T) {
	sim, plan, objs := evalEnv(t, 33, 32)
	ev, err := adaptive.New(sim, plan, adaptive.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Calibrate(objs); err != nil {
		t.Fatal(err)
	}
	if ev.Stats().CalibratedWorkers == 0 {
		t.Fatal("calibration over the simulator scored no workers")
	}
	// Estimates still come out finite and keyed by target.
	est, err := ev.Estimate(objs[0])
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := est["Protein"]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("weighted estimate broken: %v", est)
	}
}

// noDetail hides the worker identities of the wrapped platform.
type noDetail struct{ crowd.Platform }

func (p noDetail) Values(qs []crowd.ObjectValueQuestion) ([]crowd.ValueAnswers, error) {
	ans, err := p.Platform.Values(qs)
	for i := range ans {
		ans[i].Workers = nil
	}
	return ans, err
}

func TestCalibrateDegradesWithoutWorkerIdentities(t *testing.T) {
	sim, plan, objs := evalEnv(t, 34, 16)
	ev, err := adaptive.New(noDetail{sim}, plan, adaptive.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Calibrate(objs); err != nil {
		t.Fatal(err)
	}
	if n := ev.Stats().CalibratedWorkers; n != 0 {
		t.Fatalf("calibrated %d workers without the capability", n)
	}
	if _, err := ev.Estimate(objs[0]); err != nil {
		t.Fatal(err)
	}
}

func TestCalibrateDegradesThroughWrapperSentinel(t *testing.T) {
	// A retry wrapper over an identity-less platform passes the nil
	// worker identities up from the bottom of the stack.
	sim, plan, objs := evalEnv(t, 35, 16)
	p := crowd.NewRetry(noDetail{sim}, crowd.RetryOptions{})
	ev, err := adaptive.New(p, plan, adaptive.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Calibrate(objs); err != nil {
		t.Fatal(err)
	}
	if n := ev.Stats().CalibratedWorkers; n != 0 {
		t.Fatalf("calibrated %d workers through an identity-less stack", n)
	}
}

func TestAdaptiveValidation(t *testing.T) {
	sim, plan, _ := evalEnv(t, 36, 1)
	if _, err := adaptive.New(nil, plan, adaptive.Defaults()); err == nil {
		t.Fatal("nil platform should error")
	}
	if _, err := adaptive.New(sim, nil, adaptive.Defaults()); err == nil {
		t.Fatal("nil plan should error")
	}
	ev, err := adaptive.New(sim, plan, adaptive.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Estimate(nil); err == nil {
		t.Fatal("nil object should error")
	}
}

// TestAdaptiveConcurrentSpendBound hammers concurrent Estimate calls
// (run under -race in CI) and checks the reallocation invariant holds
// under any interleaving: total adaptive spend ≤ total fixed spend.
func TestAdaptiveConcurrentSpendBound(t *testing.T) {
	simF, plan, objsF := evalEnv(t, 37, 64)
	for _, o := range objsF {
		if _, err := plan.EstimateObject(simF, o); err != nil {
			t.Fatal(err)
		}
	}
	fixedSpend := onlineSpent(simF.Ledger(), plan)

	simA, _, objsA := evalEnv(t, 37, 64)
	ev, err := adaptive.New(simA, plan, adaptive.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Calibrate(objsA); err != nil {
		t.Fatal(err)
	}
	if _, err := ev.EvaluateBatch(objsA, 8); err != nil {
		t.Fatal(err)
	}
	if got := onlineSpent(simA.Ledger(), plan); got > fixedSpend {
		t.Fatalf("concurrent adaptive overspent: %v > fixed %v", got, fixedSpend)
	}
}

// TestAdaptiveDeterministicSequential pins that two sequential adaptive
// runs over twin platforms produce identical estimates and spend — the
// parallelism-1 determinism half of the contract.
func TestAdaptiveDeterministicSequential(t *testing.T) {
	run := func() ([]map[string]float64, crowd.Cost) {
		sim, plan, objs := evalEnv(t, 38, 24)
		ev, err := adaptive.New(sim, plan, adaptive.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Calibrate(objs); err != nil {
			t.Fatal(err)
		}
		out := make([]map[string]float64, len(objs))
		for i, o := range objs {
			est, err := ev.Estimate(o)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = est
		}
		return out, sim.Ledger().Spent()
	}
	a, spendA := run()
	b, spendB := run()
	if spendA != spendB {
		t.Fatalf("spend diverged across identical runs: %v vs %v", spendA, spendB)
	}
	for i := range a {
		for target, v := range a[i] {
			if b[i][target] != v {
				t.Fatalf("object %d target %s: %v vs %v", i, target, v, b[i][target])
			}
		}
	}
}
