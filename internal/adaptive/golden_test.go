package adaptive_test

import (
	"encoding/json"
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/crowdhttp"
	"repro/internal/domain"
)

// goldenPlan preprocesses one plan on a throwaway simulator. The plan is
// a pure function of the seed, so the fixed and adaptive runs below can
// share it while evaluating on their own fresh platforms.
func goldenPlan(t *testing.T, targets []string) *core.Plan {
	t.Helper()
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Preprocess(sim, core.Query{Targets: targets},
		crowd.Cents(4), crowd.Dollars(20), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// goldenEnv is one evaluation platform plus its objects and the ledger
// whose Spent() the test compares.
type goldenEnv struct {
	platform crowd.Platform
	objects  []*domain.Object
	ledger   *crowd.Ledger
	cleanup  func()
}

// flavorBuilders constructs the three platform flavors the golden
// contract covers: the plain simulator, the fault-injected retrying
// stack, and the batched remote platform (crowdhttp client over an HTTP
// test server). Each call builds a fresh, independent environment whose
// answer streams are bit-identical across calls (same seed).
func flavorBuilders(t *testing.T) map[string]func() goldenEnv {
	t.Helper()
	newSim := func() (*crowd.SimPlatform, []*domain.Object) {
		sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		return sim, sim.Universe().NewObjects(rand.New(rand.NewSource(17)), 24)
	}
	return map[string]func() goldenEnv{
		"sim": func() goldenEnv {
			sim, objs := newSim()
			return goldenEnv{platform: sim, objects: objs, ledger: sim.Ledger(), cleanup: func() {}}
		},
		"faulty": func() goldenEnv {
			sim, objs := newSim()
			p := crowd.NewRetry(crowd.NewFaulty(sim, crowd.FaultyOptions{
				Seed: 7, FailRate: 0.08, ShortRate: 0.08,
			}), crowd.RetryOptions{})
			return goldenEnv{platform: p, objects: objs, ledger: sim.Ledger(), cleanup: func() {}}
		},
		"batched-remote": func() goldenEnv {
			sim, objs := newSim()
			srv := crowdhttp.NewServer(sim)
			ts := httptest.NewServer(srv.Handler())
			for _, o := range objs {
				srv.RegisterObject(o)
			}
			client := crowdhttp.NewClient(ts.URL, ts.Client())
			return goldenEnv{platform: client, objects: objs, ledger: client.Ledger(), cleanup: ts.Close}
		},
	}
}

// TestAdaptiveDisabledBitEqualToFixed is the golden determinism
// contract: adaptive mode with stopping disabled (thresholds at ∞) must
// be bit-equal to the fixed-budget path — same estimates, same Spent()
// — over the simulator, the fault-injected stack and the batched remote
// platform. The plan itself must come through untouched (same JSON).
func TestAdaptiveDisabledBitEqualToFixed(t *testing.T) {
	plan := goldenPlan(t, []string{"Protein"})
	planJSON, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}

	for name, build := range flavorBuilders(t) {
		t.Run(name, func(t *testing.T) {
			fixed := build()
			defer fixed.cleanup()
			fixedEsts := make([]map[string]float64, len(fixed.objects))
			for i, o := range fixed.objects {
				est, err := plan.EstimateObject(fixed.platform, o)
				if err != nil {
					t.Fatalf("fixed object %d: %v", i, err)
				}
				fixedEsts[i] = est
			}
			fixedSpent := fixed.ledger.Spent()

			adap := build()
			defer adap.cleanup()
			ev, err := adaptive.New(adap.platform, plan, adaptive.Disabled())
			if err != nil {
				t.Fatal(err)
			}
			if err := ev.Calibrate(adap.objects); err != nil {
				t.Fatal(err)
			}
			for i, o := range adap.objects {
				est, err := ev.Estimate(o)
				if err != nil {
					t.Fatalf("adaptive object %d: %v", i, err)
				}
				if len(est) != len(fixedEsts[i]) {
					t.Fatalf("object %d: %d targets vs %d", i, len(est), len(fixedEsts[i]))
				}
				for target, v := range fixedEsts[i] {
					if got := est[target]; got != v {
						t.Fatalf("object %d target %s: adaptive %v != fixed %v", i, target, got, v)
					}
				}
			}
			if got := adap.ledger.Spent(); got != fixedSpent {
				t.Fatalf("Spent() diverged: adaptive %v != fixed %v", got, fixedSpent)
			}
			st := ev.Stats()
			if st.QuestionsSkipped != 0 || st.Boosted != 0 || st.PoolMills != 0 {
				t.Fatalf("disabled mode must not save/boost: %+v", st)
			}
		})
	}

	after, err := json.Marshal(plan)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(planJSON) {
		t.Fatal("adaptive evaluation mutated the plan")
	}
}

// TestAdaptiveDisabledBitEqualMultiTarget repeats the contract on a
// two-target plan over the simulator (multi-target regression programs
// exercise the full compiled-prediction reuse).
func TestAdaptiveDisabledBitEqualMultiTarget(t *testing.T) {
	plan := goldenPlan(t, []string{"Protein", "Calories"})
	sim1, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	sim2, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	objs1 := sim1.Universe().NewObjects(rand.New(rand.NewSource(18)), 16)
	objs2 := sim2.Universe().NewObjects(rand.New(rand.NewSource(18)), 16)

	ev, err := adaptive.New(sim2, plan, adaptive.Disabled())
	if err != nil {
		t.Fatal(err)
	}
	for i := range objs1 {
		want, err := plan.EstimateObject(sim1, objs1[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.Estimate(objs2[i])
		if err != nil {
			t.Fatal(err)
		}
		for target, v := range want {
			if got[target] != v {
				t.Fatalf("object %d target %s: %v != %v", i, target, got[target], v)
			}
		}
	}
	if sim1.Ledger().Spent() != sim2.Ledger().Spent() {
		t.Fatalf("Spent() diverged: %v vs %v", sim2.Ledger().Spent(), sim1.Ledger().Spent())
	}
}
