// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per experiment of DESIGN.md's index), plus
// micro-benchmarks of the algorithm's hot components.
//
// The figure benchmarks run reduced configurations (few repetitions,
// small evaluation sets) so `go test -bench=.` completes in minutes; the
// full 30-repetition curves are regenerated with `cmd/disq-bench`.
// Each figure benchmark reports the final DisQ-family mean error as the
// custom metric "err" so regressions in *quality*, not just speed, show
// up in benchmark diffs.
package disq_test

import (
	"math/rand"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	disq "repro"
	"repro/internal/baselines"
	"repro/internal/crowd"
	"repro/internal/experiment"
)

// benchFigure runs a registry experiment once per iteration at reduced
// scale.
func benchFigure(b *testing.B, id string) {
	fig, ok := experiment.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := fig.Run(experiment.RunOptions{Reps: 2, EvalObjects: 30, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPoint runs a single-budget experiment and reports the last
// algorithm's (the DisQ variant's) mean error as a quality metric.
func benchPoint(b *testing.B, spec experiment.Spec) {
	spec.Reps = 2
	spec.EvalObjects = 30
	var lastErr float64
	for i := 0; i < b.N; i++ {
		spec.BaseSeed = int64(i)
		res, err := experiment.Run(spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range res {
			if len(r.PerRep) > 0 {
				lastErr = r.Mean
			}
		}
	}
	b.ReportMetric(lastErr, "err")
}

// --- Table benchmarks -----------------------------------------------------

func BenchmarkTable4(b *testing.B) { benchFigure(b, "table4") }
func BenchmarkTable5(b *testing.B) { benchFigure(b, "table5") }

// --- Figure 1: proof of concept (one per panel) ----------------------------

func BenchmarkFig1aBmiVaryBPrc(b *testing.B)     { benchFigure(b, "fig1a") }
func BenchmarkFig1bProteinVaryBPrc(b *testing.B) { benchFigure(b, "fig1b") }
func BenchmarkFig1cBmiAgeVaryBPrc(b *testing.B)  { benchFigure(b, "fig1c") }
func BenchmarkFig1dBmiVaryBObj(b *testing.B)     { benchFigure(b, "fig1d") }
func BenchmarkFig1eProteinVaryBObj(b *testing.B) { benchFigure(b, "fig1e") }
func BenchmarkFig1fBmiAgeVaryBObj(b *testing.B)  { benchFigure(b, "fig1f") }

// --- Figure 2: necessary budget --------------------------------------------

func BenchmarkFig2RequiredBudget(b *testing.B) { benchFigure(b, "fig2") }

// --- Figure 3: GetNextAttribute ablation ------------------------------------

func BenchmarkFig3aOnlyQueryVaryBPrc(b *testing.B) { benchFigure(b, "fig3a") }
func BenchmarkFig3bOnlyQueryVaryBObj(b *testing.B) { benchFigure(b, "fig3b") }

// --- Figure 4: statistics-estimation variants --------------------------------

func BenchmarkFig4aStatVariantsVaryBPrc(b *testing.B) { benchFigure(b, "fig4a") }
func BenchmarkFig4bStatVariantsVaryBObj(b *testing.B) { benchFigure(b, "fig4b") }

// --- Section 5.3.1 coverage and Section 5.4 ablations ------------------------

func BenchmarkCoverage(b *testing.B)            { benchFigure(b, "coverage") }
func BenchmarkAblationQuality(b *testing.B)     { benchFigure(b, "ablation-quality") }
func BenchmarkAblationUnification(b *testing.B) { benchFigure(b, "ablation-unification") }
func BenchmarkAblationRho(b *testing.B)         { benchFigure(b, "ablation-rho") }
func BenchmarkAblationPricing(b *testing.B)     { benchFigure(b, "ablation-pricing") }
func BenchmarkSyntheticDomain(b *testing.B)     { benchFigure(b, "synthetic") }

// --- Headline quality points (error reported as the "err" metric) ------------

func BenchmarkQualityProtein4c(b *testing.B) {
	benchPoint(b, experiment.Spec{
		Name:       "quality-protein",
		Platform:   experiment.PlatformConfig{Domain: "recipes"},
		Targets:    []string{"Protein"},
		BObj:       crowd.Cents(4),
		BPrc:       crowd.Dollars(30),
		Algorithms: []baselines.Algorithm{baselines.DisQ{}},
	})
}

func BenchmarkQualityBmi4c(b *testing.B) {
	benchPoint(b, experiment.Spec{
		Name:       "quality-bmi",
		Platform:   experiment.PlatformConfig{Domain: "pictures"},
		Targets:    []string{"Bmi"},
		BObj:       crowd.Cents(4),
		BPrc:       crowd.Dollars(30),
		Algorithms: []baselines.Algorithm{baselines.DisQ{}},
	})
}

func BenchmarkQualityBmiAge4c(b *testing.B) {
	benchPoint(b, experiment.Spec{
		Name:       "quality-bmi-age",
		Platform:   experiment.PlatformConfig{Domain: "pictures"},
		Targets:    []string{"Bmi", "Age"},
		BObj:       crowd.Cents(4),
		BPrc:       crowd.Dollars(30),
		Algorithms: []baselines.Algorithm{baselines.DisQ{}},
	})
}

// --- Parallel-throughput figure benchmark ------------------------------------

// benchSweep runs the fig1a-style sweep at a fixed harness parallelism,
// reporting the DisQ mean error so the sequential and parallel variants
// can be checked for identical quality. The ns/op ratio between the two
// is the end-to-end parallel speedup (≈1 on one CPU, approaching the
// core count on multi-core machines).
func benchSweep(b *testing.B, parallelism int) {
	spec := experiment.Spec{
		Name:     "bench-sweep",
		Platform: experiment.PlatformConfig{Domain: "pictures"},
		Targets:  []string{"Bmi"},
		BObj:     crowd.Cents(4), BPrc: crowd.Dollars(30),
		Algorithms:  []baselines.Algorithm{baselines.NaiveAverage{}, baselines.DisQ{}},
		Reps:        2,
		EvalObjects: 30,
		Parallelism: parallelism,
	}
	grid := []crowd.Cost{crowd.Dollars(10), crowd.Dollars(20), crowd.Dollars(30)}
	var lastErr float64
	for i := 0; i < b.N; i++ {
		spec.BaseSeed = int64(i)
		sw, err := experiment.RunSweep(spec, experiment.VaryBPrc, grid)
		if err != nil {
			b.Fatal(err)
		}
		for _, pt := range sw.Points {
			for _, r := range pt.Results {
				if r.Algorithm == "DisQ" && len(r.PerRep) > 0 {
					lastErr = r.Mean
				}
			}
		}
	}
	b.ReportMetric(lastErr, "err")
}

func BenchmarkSweepSequential(b *testing.B) { benchSweep(b, 1) }
func BenchmarkSweepParallel(b *testing.B)   { benchSweep(b, 0) }

// --- Component micro-benchmarks ----------------------------------------------

// BenchmarkPreprocessSingleTarget measures one full offline phase.
func BenchmarkPreprocessSingleTarget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := disq.NewSimPlatform(disq.Recipes(), disq.SimOptions{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := disq.Preprocess(p, disq.Query{Targets: []string{"Protein"}},
			disq.Cents(4), disq.Dollars(25), disq.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreprocessMultiTarget measures the Section 4 extension.
func BenchmarkPreprocessMultiTarget(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := disq.NewSimPlatform(disq.Pictures(), disq.SimOptions{Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := disq.Preprocess(p, disq.Query{Targets: []string{"Bmi", "Age"}},
			disq.Cents(4), disq.Dollars(30), disq.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineEvaluation measures the per-object online phase.
func BenchmarkOnlineEvaluation(b *testing.B) {
	p, err := disq.NewSimPlatform(disq.Recipes(), disq.SimOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	plan, err := disq.Preprocess(p, disq.Query{Targets: []string{"Protein"}},
		disq.Cents(4), disq.Dollars(25), disq.Options{})
	if err != nil {
		b.Fatal(err)
	}
	objs := p.Universe().NewObjects(rand.New(rand.NewSource(2)), 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.EstimateObject(p, objs[i%len(objs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Remote (crowdhttp) online evaluation -------------------------------------

// remotePlan is a wide hand-built plan (12 support attributes over the
// recipes domain) so the batched-vs-unbatched round-trip ratio is the
// support size — the worst case for the per-attribute wire protocol.
func remotePlan() *disq.Plan {
	attrs := []string{
		"Calories", "Protein", "Number Of Eggs", "Number Of Ingredients",
		"Fat Amount", "Sugar", "Low Calories", "Dessert", "Healthy",
		"Vegetarian", "Has Eggs", "Has Meat",
	}
	counts := make(map[string]int, len(attrs))
	coefs := make([]float64, len(attrs))
	for i, a := range attrs {
		counts[a] = 1 + i%2
		coefs[i] = 0.1 * float64(i+1)
	}
	return &disq.Plan{
		Targets:     []string{"Protein"},
		Budget:      disq.Assignment{Counts: counts},
		Regressions: map[string]*disq.Regression{"Protein": {Attributes: attrs, Coefficients: coefs, Intercept: 2.5}},
	}
}

// remoteEval evaluates objs through a fresh same-seed client/server pair
// and reports the estimates, the steady-state transport counters (the
// warm-up object's traffic is excluded) and the wall time.
func remoteEval(tb testing.TB, seed int64, objs, warm []*disq.Object, unbatched bool) ([]map[string]float64, disq.TransportStats, time.Duration) {
	tb.Helper()
	plan := remotePlan()
	sim, err := disq.NewSimPlatform(disq.Recipes(), disq.SimOptions{Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	srv := disq.NewCrowdServer(sim)
	ts := httptest.NewServer(srv.Handler())
	tb.Cleanup(ts.Close)
	client := disq.NewCrowdClient(ts.URL, ts.Client())
	platform := disq.Platform(client)
	if unbatched {
		platform = disq.NewBatchedPlatform(client, -1)
	}
	for _, o := range append(warm, objs...) {
		srv.RegisterObject(o)
	}
	for _, o := range warm {
		if _, err := plan.EstimateObject(platform, disq.RefObject(o.ID)); err != nil {
			tb.Fatal(err)
		}
	}
	base := client.TransportStats()
	start := time.Now()
	out := make([]map[string]float64, len(objs))
	for i, o := range objs {
		est, err := plan.EstimateObject(platform, disq.RefObject(o.ID))
		if err != nil {
			tb.Fatal(err)
		}
		out[i] = est
	}
	elapsed := time.Since(start)
	st := client.TransportStats()
	st.Requests -= base.Requests
	st.Batches -= base.Batches
	st.BatchItems -= base.BatchItems
	return out, st, elapsed
}

// TestRemoteBatchedEvaluation is the acceptance test for the batched
// wire protocol: evaluating 32 objects through an httptest crowdhttp
// server must cost ≥10× fewer HTTP round trips (and less wall time) than
// the unbatched per-attribute protocol, with estimates bit-equal to
// driving the simulator directly.
func TestRemoteBatchedEvaluation(t *testing.T) {
	const seed = 71
	plan := remotePlan()
	ref, err := disq.NewSimPlatform(disq.Recipes(), disq.SimOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	objs := ref.Universe().NewObjects(rand.New(rand.NewSource(72)), 32)
	warm := ref.Universe().NewObjects(rand.New(rand.NewSource(73)), 1)
	want := make([]map[string]float64, len(objs))
	for i, o := range objs {
		if want[i], err = plan.EstimateObject(ref, o); err != nil {
			t.Fatal(err)
		}
	}

	// One wall-clock run per arm is at the mercy of whatever else the
	// host is doing; alternating the arms three times and keeping each
	// arm's fastest run compares the two paths, not the noise.
	var batchedSt, unbatchedSt disq.TransportStats
	var batchedTime, unbatchedTime time.Duration
	for rep := 0; rep < 3; rep++ {
		batched, bst, bt := remoteEval(t, seed, objs, warm, false)
		unbatched, ust, ut := remoteEval(t, seed, objs, warm, true)
		if !reflect.DeepEqual(batched, want) {
			t.Fatalf("batched remote estimates diverge from direct evaluation:\nremote %v\ndirect %v", batched, want)
		}
		if !reflect.DeepEqual(unbatched, want) {
			t.Fatalf("unbatched remote estimates diverge from direct evaluation:\nremote %v\ndirect %v", unbatched, want)
		}
		if ust.Requests < 10*bst.Requests {
			t.Fatalf("round trips: unbatched %d vs batched %d — want ≥10× reduction", ust.Requests, bst.Requests)
		}
		if bst.Batches != int64(len(objs)) {
			t.Fatalf("batched evaluation sent %d batch requests for %d objects", bst.Batches, len(objs))
		}
		if rep == 0 || bt < batchedTime {
			batchedTime, batchedSt = bt, bst
		}
		if rep == 0 || ut < unbatchedTime {
			unbatchedTime, unbatchedSt = ut, ust
		}
	}
	if batchedTime >= unbatchedTime {
		t.Fatalf("batched evaluation was not faster: %v vs %v (requests %d vs %d)",
			batchedTime, unbatchedTime, batchedSt.Requests, unbatchedSt.Requests)
	}
	t.Logf("32 objects: batched %d requests in %v, unbatched %d requests in %v",
		batchedSt.Requests, batchedTime, unbatchedSt.Requests, unbatchedTime)
}

// benchRemoteEvaluation measures one remote object evaluation per
// iteration, each against uncached objects (the steady state of scoring
// a database through a crowdhttp deployment).
func benchRemoteEvaluation(b *testing.B, unbatched bool) {
	plan := remotePlan()
	sim, err := disq.NewSimPlatform(disq.Recipes(), disq.SimOptions{Seed: 81})
	if err != nil {
		b.Fatal(err)
	}
	srv := disq.NewCrowdServer(sim)
	ts := httptest.NewServer(srv.Handler())
	b.Cleanup(ts.Close)
	client := disq.NewCrowdClient(ts.URL, ts.Client())
	platform := disq.Platform(client)
	if unbatched {
		platform = disq.NewBatchedPlatform(client, -1)
	}
	objs := sim.Universe().NewObjects(rand.New(rand.NewSource(82)), b.N+1)
	for _, o := range objs {
		srv.RegisterObject(o)
	}
	// Warm pricing/meta/canonical caches outside the timed loop.
	if _, err := plan.EstimateObject(platform, disq.RefObject(objs[b.N].ID)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := plan.EstimateObject(platform, disq.RefObject(objs[i].ID)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRemoteOnlineBatched(b *testing.B)   { benchRemoteEvaluation(b, false) }
func BenchmarkRemoteOnlineUnbatched(b *testing.B) { benchRemoteEvaluation(b, true) }

// BenchmarkSimValueQuestion measures raw simulated crowd throughput.
func BenchmarkSimValueQuestion(b *testing.B) {
	p, err := disq.NewSimPlatform(disq.Recipes(), disq.SimOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	objs := p.Universe().NewObjects(rand.New(rand.NewSource(3)), 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Value(objs[i%len(objs)], "Calories", 1); err != nil {
			b.Fatal(err)
		}
	}
}
