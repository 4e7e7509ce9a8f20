package adaptive_test

import (
	"math/rand"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/crowd"
	"repro/internal/domain"
)

// TestDefaultsSpendNeverExceedsFixed pins the pool invariant for the
// everything-on configuration at a scale where the calibration pilot
// covers most of the evaluation set (12 of 16 objects). The pilot asks
// its objects at full b(a) up front; if stopping on those pre-paid
// objects were allowed to deposit "savings", reallocation would fund
// boosts with money the fixed policy never had and total spend could
// exceed the fixed budget — the regression this test guards against.
func TestDefaultsSpendNeverExceedsFixed(t *testing.T) {
	plan := goldenPlan(t, []string{"Protein"})
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	objs := sim.Universe().NewObjects(rand.New(rand.NewSource(17)), 16)
	snap := sim.Snapshot()

	fixedFork := snap.Fork()
	base := fixedFork.Ledger().Spent()
	for _, o := range objs {
		if _, err := plan.EstimateObject(fixedFork, o); err != nil {
			t.Fatal(err)
		}
	}
	fixedSpend := fixedFork.Ledger().Spent() - base

	adFork := snap.Fork()
	base = adFork.Ledger().Spent()
	ev, err := adaptive.New(adFork, plan, adaptive.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if err := ev.Calibrate(objs); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if _, err := ev.Estimate(o); err != nil {
			t.Fatal(err)
		}
	}
	adSpend := adFork.Ledger().Spent() - base
	st := ev.Stats()
	if adSpend > fixedSpend {
		t.Errorf("pool invariant violated: adaptive %v > fixed %v (saved %d, boosted %d)",
			adSpend, fixedSpend, st.QuestionsSkipped, st.Boosted)
	}
	// Pilot objects are fully paid, so only the 4 non-pilot objects can
	// contribute savings; phantom pilot savings would report far more.
	if st.QuestionsSkipped > st.Boosted && adSpend >= fixedSpend {
		t.Errorf("reported net savings (%d saved, %d boosted) with no spend reduction (%v vs %v)",
			st.QuestionsSkipped, st.Boosted, adSpend, fixedSpend)
	}
}
