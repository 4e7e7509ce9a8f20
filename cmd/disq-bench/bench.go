package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	disq "repro"
	"repro/internal/adaptive"
	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/experiment"
	"repro/internal/serve"
)

// benchEntry is one machine-readable benchmark result. NsPerOp mirrors
// `go test -bench` and Err carries the quality metric (the DisQ mean
// weighted error) where the benchmark has one, so speed regressions and
// quality regressions show up in the same diff.
type benchEntry struct {
	Name        string  `json:"name"`
	Parallelism int     `json:"parallelism"` // 0 = as wide as GOMAXPROCS allows
	NsPerOp     int64   `json:"ns_per_op"`
	Err         float64 `json:"err,omitempty"`
	// Phases carries the per-phase preprocessing profile (wall time,
	// questions, cost) on the preprocess benchmark.
	Phases []core.PhaseStats `json:"phases,omitempty"`
}

// benchReport is the top-level JSON document written by -bench.
type benchReport struct {
	GoMaxProcs  int `json:"go_max_procs"`
	Reps        int `json:"reps"`
	EvalObjects int `json:"eval_objects"`
	// SweepSpeedup is sequential / parallel wall-clock of the figure-level
	// sweep benchmark, measured pinned to one processor so the number is
	// comparable across machines (and against BENCH_baseline.json). With
	// only one processor the parallel path falls back to the serial loop,
	// so this must sit at ~1.0 — below 1.0 means the harness is paying
	// scheduling overhead for no gain.
	SweepSpeedup float64 `json:"sweep_speedup"`
	// SweepSpeedupNCPU repeats the measurement at GOMAXPROCS=NumCPU — the
	// real parallel-throughput figure, which should approach
	// min(NumCPU, #budget points × reps) on multi-core hardware. On a
	// single-CPU host the measurement is meaningless (it can only re-time
	// the serial fallback), so it is skipped and the field omitted.
	SweepSpeedupNCPU float64 `json:"sweep_speedup_ncpu,omitempty"`
	// SweepSharedGain is rebuild-per-point / shared-snapshot wall-clock of
	// the sequential pinned sweep: how much the copy-on-write answer-stream
	// layer (RunSweep forking one per-repetition platform per budget point)
	// saves over rebuilding the simulation at every point. The contract is
	// ≥1.5 — below that the sharing layer has stopped paying for itself.
	SweepSharedGain float64 `json:"sweep_shared_gain"`
	// CollectBatchGain is unbatched / batched collect-phase wall-clock of a
	// full preprocessing run against a local HTTP crowd server: what the
	// multi-object value batches (one round trip per attribute × stream
	// instead of one per example) save on a real transport. The contract is
	// ≥1.3 — below that the batched wire path has stopped paying for itself.
	CollectBatchGain float64 `json:"collect_batch_gain,omitempty"`
	// QPS/P50Ns/P99Ns are the serving-tier headline: closed-loop
	// throughput and tail latency of a two-backend serve.Tier driven by
	// the shared load harness (warm plan cache, mixed statements).
	QPS   float64 `json:"qps,omitempty"`
	P50Ns int64   `json:"p50_ns,omitempty"`
	P99Ns int64   `json:"p99_ns,omitempty"`
	// PlanCacheGain is cold / warm median query latency on the serving
	// tier (a cache-missing plan key vs a pre-warmed one, ABBA-measured):
	// what the plan cache saves a repeated query. The contract is ≥3 —
	// below that the cache has stopped paying for itself.
	PlanCacheGain float64 `json:"plan_cache_gain,omitempty"`
	// AdaptiveSpendGain is fixed / adaptive online crowd spend of the
	// same plan evaluated over the same answer streams (forks of one
	// snapshot), with the adaptive evaluator in its stopping-only
	// headline tuning. This is money, not wall-clock, and the comparison
	// is deterministic. The contract is ≥1.2 — equal-quality estimates at
	// ≥20% lower online spend.
	AdaptiveSpendGain float64 `json:"adaptive_spend_gain,omitempty"`
	// AdaptiveErr / FixedErr carry the two modes' mean weighted errors so
	// the spend gain can't quietly be bought with accuracy.
	AdaptiveErr float64 `json:"adaptive_err,omitempty"`
	FixedErr    float64 `json:"fixed_err,omitempty"`
	// ShardScalingGain is S=1 / S=4 wall-clock of the same query mix on a
	// sharded serving tier whose replica backends model per-question
	// crowd latency: what scatter-gather partition parallelism hides of
	// the crowd round trips. Latency-bound, so it holds on a single-CPU
	// host. The contract is ≥1.5 — below that the scatter has stopped
	// paying for itself.
	ShardScalingGain float64 `json:"shard_scaling_gain,omitempty"`
	// PredicateSkipGain is eager / lazy online crowd spend of the same
	// selective conjunctive filter over bit-identical answer streams: what
	// short-circuit evaluation with cheapest-rejection-first ordering and
	// confidence-based early predicate decisions saves. Deterministic
	// money, not wall-clock. The contract is ≥2 — the lazy evaluator must
	// at least halve the online bill on a selective filter.
	PredicateSkipGain float64 `json:"predicate_skip_gain,omitempty"`
	// TopKPruneGain is eager / lazy online spend of a pure ORDER BY ...
	// LIMIT statement under the exact (Z=∞) top-k prune, whose rows are
	// bit-equal to the eager engine's. The contract is ≥1.1.
	TopKPruneGain float64 `json:"topk_prune_gain,omitempty"`
	// AnswerReuseGain is reuse-off / reuse-on online crowd spend of the
	// same overlapping-window session workload on a serving tier with the
	// shared answer cache: what cross-session answer reuse saves when
	// sessions' evaluation sets overlap. Rows are bit-equal either way —
	// the cache serves answer prefixes the simulator would reproduce
	// bit-identically — so the gain is pure money. The workload overlaps
	// every object twice, making the constructed gain 2.0; the contract
	// is ≥1.5.
	AnswerReuseGain float64 `json:"answer_reuse_gain,omitempty"`
	// ShardQuestionsPerBackend is the sharded arm's mean per-backend
	// online question volume divided by the unsharded arm's (which lands
	// on one backend): ~1/S when the partitioner spreads evenly. Lower is
	// better; the contract is ≤0.5 at S=4.
	ShardQuestionsPerBackend float64      `json:"shard_questions_per_backend,omitempty"`
	NumCPU                   int          `json:"num_cpu"`
	Benchmarks               []benchEntry `json:"benchmarks"`
}

// runBench executes the benchmark suite and writes the JSON report to
// jsonPath ("" = stdout). reps/evalN of 0 use the reduced benchmark
// defaults (2 reps, 30 objects), not the paper-scale defaults.
func runBench(jsonPath string, reps, evalN int, seed int64) error {
	if reps == 0 {
		reps = 2
	}
	if evalN == 0 {
		evalN = 30
	}
	report := benchReport{
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Reps:        reps,
		EvalObjects: evalN,
	}

	// Figure-level benchmark: the fig1a sweep (error vs B_prc, pictures,
	// Bmi) at Parallelism=1 and at full width. Same seeds, so the err
	// metric must agree within float noise; the wall-clock ratio is the
	// headline parallel-throughput number.
	sweepSpec := experiment.Spec{
		Name:     "bench-fig1a",
		Platform: experiment.PlatformConfig{Domain: "pictures"},
		Targets:  []string{"Bmi"},
		BObj:     crowd.Cents(4), BPrc: crowd.Dollars(30),
		Algorithms: []baselines.Algorithm{
			baselines.NaiveAverage{}, baselines.SimpleDisQ(), baselines.DisQ{},
		},
		Reps: reps, EvalObjects: evalN, BaseSeed: seed,
	}
	grid := []crowd.Cost{crowd.Dollars(10), crowd.Dollars(15), crowd.Dollars(20), crowd.Dollars(25)}
	// Two sweep implementations share the measurement harness: the
	// rebuild-per-point path (a fresh simulation per budget point, the
	// pre-snapshot behavior and the apples-to-apples number against older
	// reports) and the shared path (every point forks one per-repetition
	// snapshot, the RunSweep default).
	type sweepFn func(experiment.Spec, experiment.SweepVariable, []crowd.Cost) (*experiment.Sweep, error)
	runSweepBench := func(parallelism int, run sweepFn) (int64, float64, error) {
		s := sweepSpec
		s.Parallelism = parallelism
		// Start every measurement from a collected heap: the sweep
		// allocates heavily, and without the barrier whichever mode runs
		// later pays the previous mode's GC debt (the seed baseline's
		// sweep_speedup < 1 was partly this ordering bias).
		runtime.GC()
		start := time.Now()
		sw, err := run(s, experiment.VaryBPrc, grid)
		if err != nil {
			return 0, 0, err
		}
		elapsed := time.Since(start).Nanoseconds()
		var sum float64
		var n int
		for _, pt := range sw.Points {
			for _, r := range pt.Results {
				if r.Algorithm == "DisQ" && len(r.PerRep) > 0 {
					sum += r.Mean
					n++
				}
			}
		}
		if n == 0 {
			return elapsed, 0, nil
		}
		return elapsed, sum / float64(n), nil
	}
	// The sweep is timed pinned to one processor (the apples-to-apples
	// number against older reports, where the serial fallback keeps the
	// speedup ratio at ~1.0) and at full width (the genuine
	// parallel-throughput figure). Both restore the scheduler and the
	// shared worker pool before the per-phase benchmarks below.
	prevProcs := runtime.GOMAXPROCS(1)
	prevPool := core.SetPoolParallelism(1)
	restore := func() {
		runtime.GOMAXPROCS(prevProcs)
		core.SetPoolParallelism(prevPool)
	}
	// One discarded warm-up sweep absorbs first-run effects (heap growth,
	// lazy initialization) that would otherwise bias the first mode.
	if _, _, err := runSweepBench(1, experiment.RunSweepRebuild); err != nil {
		restore()
		return err
	}
	// Each mode is measured twice in ABBA order and the minimum kept:
	// counterbalancing cancels the slow monotonic drift a shared box
	// shows between otherwise identical runs, which is what pushed the
	// seed baseline's one-slot speedup below 1.0. The shared path rides
	// inside the same palindrome so drift cancels for the gain ratio too.
	seqA, seqErr, err := runSweepBench(1, experiment.RunSweepRebuild)
	if err != nil {
		restore()
		return err
	}
	shSeqA, shSeqErr, err := runSweepBench(1, experiment.RunSweep)
	if err != nil {
		restore()
		return err
	}
	parA, parErr, err := runSweepBench(0, experiment.RunSweepRebuild)
	if err != nil {
		restore()
		return err
	}
	shParA, shParErr, err := runSweepBench(0, experiment.RunSweep)
	if err != nil {
		restore()
		return err
	}
	shParB, _, err := runSweepBench(0, experiment.RunSweep)
	if err != nil {
		restore()
		return err
	}
	parB, _, err := runSweepBench(0, experiment.RunSweepRebuild)
	if err != nil {
		restore()
		return err
	}
	shSeqB, _, err := runSweepBench(1, experiment.RunSweep)
	if err != nil {
		restore()
		return err
	}
	seqB, _, err := runSweepBench(1, experiment.RunSweepRebuild)
	if err != nil {
		restore()
		return err
	}
	seqNs, parNs := min(seqA, seqB), min(parA, parB)
	shSeqNs, shParNs := min(shSeqA, shSeqB), min(shParA, shParB)
	// The GOMAXPROCS=NumCPU re-measurement only means something when there
	// is more than one CPU to widen onto; on a single-CPU host it would
	// just re-time the serial fallback twice, so it is skipped entirely.
	var seqNsN, parNsN int64
	if runtime.NumCPU() > 1 {
		runtime.GOMAXPROCS(runtime.NumCPU())
		core.SetPoolParallelism(runtime.NumCPU())
		if seqNsN, _, err = runSweepBench(1, experiment.RunSweepRebuild); err != nil {
			restore()
			return err
		}
		parNsN, _, err = runSweepBench(0, experiment.RunSweepRebuild)
	}
	restore()
	if err != nil {
		return err
	}
	report.Benchmarks = append(report.Benchmarks,
		benchEntry{Name: "sweep-fig1a", Parallelism: 1, NsPerOp: seqNs, Err: seqErr},
		benchEntry{Name: "sweep-fig1a", Parallelism: 0, NsPerOp: parNs, Err: parErr},
		benchEntry{Name: "sweep-fig1a-shared", Parallelism: 1, NsPerOp: shSeqNs, Err: shSeqErr},
		benchEntry{Name: "sweep-fig1a-shared", Parallelism: 0, NsPerOp: shParNs, Err: shParErr},
	)
	if parNsN > 0 {
		report.Benchmarks = append(report.Benchmarks,
			benchEntry{Name: "sweep-fig1a-ncpu", Parallelism: 1, NsPerOp: seqNsN},
			benchEntry{Name: "sweep-fig1a-ncpu", Parallelism: 0, NsPerOp: parNsN},
		)
		report.SweepSpeedupNCPU = float64(seqNsN) / float64(parNsN)
	}
	if parNs > 0 {
		report.SweepSpeedup = float64(seqNs) / float64(parNs)
	}
	if shSeqNs > 0 {
		report.SweepSharedGain = float64(seqNs) / float64(shSeqNs)
	}
	report.NumCPU = runtime.NumCPU()

	// Headline quality point: DisQ alone on recipes/Protein at 4¢.
	pointSpec := experiment.Spec{
		Name:     "bench-protein-4c",
		Platform: experiment.PlatformConfig{Domain: "recipes"},
		Targets:  []string{"Protein"},
		BObj:     crowd.Cents(4), BPrc: crowd.Dollars(30),
		Algorithms: []baselines.Algorithm{baselines.DisQ{}},
		Reps:       reps, EvalObjects: evalN, BaseSeed: seed,
	}
	start := time.Now()
	res, err := experiment.Run(pointSpec)
	if err != nil {
		return err
	}
	var pointErr float64
	for _, r := range res {
		if len(r.PerRep) > 0 {
			pointErr = r.Mean
		}
	}
	report.Benchmarks = append(report.Benchmarks, benchEntry{
		Name: "point-protein-4c", NsPerOp: time.Since(start).Nanoseconds(), Err: pointErr,
	})

	// Offline phase: one full preprocessing run (optimizer-dominated),
	// with the per-phase breakdown Preprocess emits on its trace. Like the
	// sweeps, the run is measured twice behind GC barriers and the faster
	// repetition kept, so the earlier benchmarks' heap churn doesn't leak
	// into the phase walls.
	runPreprocess := func() (*disq.SimPlatform, *core.Plan, []core.PhaseStats, int64, error) {
		runtime.GC()
		var phases []core.PhaseStats
		t0 := time.Now()
		sim, err := disq.NewSimPlatform(disq.Recipes(), disq.SimOptions{Seed: seed + 1})
		if err != nil {
			return nil, nil, nil, 0, err
		}
		pl, err := disq.Preprocess(sim, disq.Query{Targets: []string{"Protein"}},
			disq.Cents(4), disq.Dollars(25), disq.Options{Trace: func(e disq.TraceEvent) {
				if e.Kind == disq.TracePhase {
					phases = append(phases, *e.Phase)
				}
			}})
		if err != nil {
			return nil, nil, nil, 0, err
		}
		return sim, pl, phases, time.Since(t0).Nanoseconds(), nil
	}
	p, plan, phases, preNs, err := runPreprocess()
	if err != nil {
		return err
	}
	if p2, plan2, phases2, preNs2, err := runPreprocess(); err != nil {
		return err
	} else if preNs2 < preNs {
		p, plan, phases, preNs = p2, plan2, phases2, preNs2
	}
	report.Benchmarks = append(report.Benchmarks, benchEntry{
		Name: "preprocess-single-target", NsPerOp: preNs,
		Phases: phases,
	})

	// Collect batching over the wire: the same preprocessing run against a
	// local HTTP crowd server, once with the batched client (multi-object
	// value batches, one round trip per attribute × stream) and once with
	// one question per exchange (one round trip per value question).
	// The collect-phase wall-clock ratio is the batching headline; both
	// modes are measured twice in ABBA order with the minimum kept, like
	// the sweep above.
	remoteCollect := func(strip bool) (int64, error) {
		sim, err := disq.NewSimPlatform(disq.Recipes(), disq.SimOptions{Seed: seed + 3})
		if err != nil {
			return 0, err
		}
		srv := disq.NewCrowdServer(sim)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := disq.NewCrowdClient(ts.URL, ts.Client())
		var p disq.Platform = client
		if strip {
			p = disq.NewBatchedPlatform(client, -1)
		}
		var collect int64
		_, err = disq.Preprocess(p, disq.Query{Targets: []string{"Protein"}},
			disq.Cents(4), disq.Dollars(10), disq.Options{Trace: func(e disq.TraceEvent) {
				if e.Kind == disq.TracePhase && e.Phase.Phase == core.PhaseCollect {
					collect = int64(e.Phase.Wall)
				}
			}})
		if err != nil {
			return 0, err
		}
		return collect, nil
	}
	batA, err := remoteCollect(false)
	if err != nil {
		return err
	}
	serA, err := remoteCollect(true)
	if err != nil {
		return err
	}
	serB, err := remoteCollect(true)
	if err != nil {
		return err
	}
	batB, err := remoteCollect(false)
	if err != nil {
		return err
	}
	batNs, serNs := min(batA, batB), min(serA, serB)
	report.Benchmarks = append(report.Benchmarks,
		benchEntry{Name: "collect-remote-batched", NsPerOp: batNs},
		benchEntry{Name: "collect-remote-serial", NsPerOp: serNs},
	)
	if batNs > 0 {
		report.CollectBatchGain = float64(serNs) / float64(batNs)
	}

	// Online phase: per-object estimation cost, amortized.
	objs := p.Universe().NewObjects(rand.New(rand.NewSource(seed+2)), 256)
	start = time.Now()
	for _, o := range objs {
		if _, err := plan.EstimateObject(p, o); err != nil {
			return err
		}
	}
	report.Benchmarks = append(report.Benchmarks, benchEntry{
		Name: "online-evaluation", NsPerOp: time.Since(start).Nanoseconds() / int64(len(objs)),
	})

	// Raw simulator throughput: one value question, amortized.
	const questions = 4096
	start = time.Now()
	for i := 0; i < questions; i++ {
		if _, err := p.Value(objs[i%len(objs)], "Calories", 1+i/len(objs)/2); err != nil {
			return err
		}
	}
	report.Benchmarks = append(report.Benchmarks, benchEntry{
		Name: "sim-value-question", NsPerOp: time.Since(start).Nanoseconds() / questions,
	})

	// Adaptive online budgets: fixed vs adaptive evaluation of the same
	// plan over forked answer streams (experiment.AdaptiveGain). The gain
	// is a spend ratio, not a timing, so one deterministic run suffices —
	// no ABBA dance.
	adRes, err := experiment.AdaptiveGain(experiment.AdaptiveSpec{
		Name:     "bench-adaptive",
		Platform: experiment.PlatformConfig{Domain: "recipes"},
		Targets:  []string{"Protein"},
		BObj:     crowd.Cents(4), BPrc: crowd.Dollars(20),
		Config: stopOnlyAdaptive(),
		Reps:   reps, EvalObjects: evalN, BaseSeed: seed,
	})
	if err != nil {
		return err
	}
	report.AdaptiveSpendGain = adRes.SpendGain
	report.FixedErr = adRes.Fixed.Err
	report.AdaptiveErr = adRes.Adapt.Err
	report.Benchmarks = append(report.Benchmarks,
		benchEntry{Name: "online-spend-fixed-mills", NsPerOp: int64(adRes.Fixed.Spend), Err: adRes.Fixed.Err},
		benchEntry{Name: "online-spend-adaptive-mills", NsPerOp: int64(adRes.Adapt.Spend), Err: adRes.Adapt.Err},
	)

	// Serving tier: a two-backend serve.Tier (shared universe, plan cache,
	// plan-affinity routing) under the closed-loop load harness, then the
	// plan-cache cold/warm split. RunLoad and MeasureCacheGain are the
	// same code paths cmd/disq-load drives over HTTP, so this headline and
	// the CI smoke measure the same machinery in-process.
	if err := runServeBench(&report, seed); err != nil {
		return err
	}

	// Horizontal sharding: S=4 vs S=1 scatter-gather on latency-modeled
	// replica backends.
	if err := runShardBench(&report, seed); err != nil {
		return err
	}

	// Lazy predicate-ordered evaluation: eager vs lazy online spend on a
	// selective filter and on a pure top-k statement.
	if err := runLazyBench(&report); err != nil {
		return err
	}

	// Answer reuse: the same overlapping-window workload with and without
	// the shared answer cache.
	if err := runReuseBench(&report); err != nil {
		return err
	}

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if jsonPath == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(jsonPath, data, 0o644); err != nil {
		return err
	}
	ncpu := "skipped (single CPU)"
	if report.SweepSpeedupNCPU > 0 {
		ncpu = fmt.Sprintf("%.2fx at %d CPUs", report.SweepSpeedupNCPU, report.NumCPU)
	}
	fmt.Printf("benchmark report written to %s (sweep speedup %.2fx at 1 proc, %s, shared-snapshot gain %.2fx, collect batch gain %.2fx, serve %.0f qps, plan cache gain %.2fx, adaptive spend gain %.2fx, shard scaling gain %.2fx, predicate skip gain %.2fx, topk prune gain %.2fx, answer reuse gain %.2fx)\n",
		jsonPath, report.SweepSpeedup, ncpu, report.SweepSharedGain, report.CollectBatchGain,
		report.QPS, report.PlanCacheGain, report.AdaptiveSpendGain, report.ShardScalingGain,
		report.PredicateSkipGain, report.TopKPruneGain, report.AnswerReuseGain)
	return nil
}

// stopOnlyAdaptive is the adaptive evaluator's headline tuning for the
// spend-gain benchmark: sequential stopping with the savings kept (no
// reliability pilot, no reallocation), so the whole gain shows up as
// reduced spend.
func stopOnlyAdaptive() adaptive.Config {
	cfg := adaptive.Defaults()
	cfg.Weight, cfg.Reallocate = false, false
	return cfg
}

// runServeBench measures the serving tier's throughput/latency headline
// and the plan-cache gain, filling the report's QPS/P50Ns/P99Ns/
// PlanCacheGain fields.
func runServeBench(report *benchReport, seed int64) error {
	newTier := func() (*serve.Tier, error) {
		u := disq.Recipes()
		objs := u.NewObjects(rand.New(rand.NewSource(seed+6)), 64)
		cfg := serve.Config{
			Domain:      "recipes",
			Objects:     objs,
			DefaultBObj: crowd.Cents(4),
			DefaultBPrc: crowd.Dollars(6),
		}
		for i := 0; i < 2; i++ {
			sim, err := disq.NewSimPlatform(u, disq.SimOptions{Seed: seed + 4 + int64(i)})
			if err != nil {
				return nil, err
			}
			cfg.Backends = append(cfg.Backends, serve.Backend{
				Name: fmt.Sprintf("bench-%d", i), Platform: sim,
			})
		}
		return serve.New(cfg)
	}

	// Throughput: closed loop, mixed statements, warm after the first
	// arrival per shape.
	tier, err := newTier()
	if err != nil {
		return err
	}
	runtime.GC()
	load, err := serve.RunLoad(tier, serve.LoadConfig{
		Statements:  []string{"SELECT Protein", "SELECT Calories"},
		Concurrency: 4,
		Duration:    2 * time.Second,
		MaxObjects:  16,
	})
	if err != nil {
		return err
	}
	if load.Errors > 0 {
		return fmt.Errorf("serve bench: %d load errors", load.Errors)
	}
	report.QPS = load.QPS
	report.P50Ns = int64(load.P50)
	report.P99Ns = int64(load.P99)
	report.Benchmarks = append(report.Benchmarks,
		benchEntry{Name: "serve-query-p50", NsPerOp: int64(load.P50)},
		benchEntry{Name: "serve-query-p99", NsPerOp: int64(load.P99)},
	)

	// Plan-cache gain on a fresh tier (the load run above already warmed
	// every key this tier has, which would starve the cold side of fresh
	// keys' first-touch allocation costs).
	tier, err = newTier()
	if err != nil {
		return err
	}
	runtime.GC()
	gain, err := serve.MeasureCacheGain(tier, serve.GainConfig{
		Statement:  "SELECT Protein",
		Probes:     4,
		MaxObjects: 16,
		BObj:       crowd.Cents(4),
		BPrc:       crowd.Dollars(6),
	})
	if err != nil {
		return err
	}
	report.PlanCacheGain = gain.Gain
	report.Benchmarks = append(report.Benchmarks,
		benchEntry{Name: "serve-query-cold", NsPerOp: int64(gain.ColdP50)},
		benchEntry{Name: "serve-query-warm", NsPerOp: int64(gain.WarmP50)},
	)
	return nil
}

// runShardBench measures the scatter-gather headline: the same warm
// query mix at S=1 and S=4 on a four-replica tier whose backends charge a
// per-question latency (the crowd round trip a simulator otherwise hides)
// — so the gain comes from overlapping latency across shards, not from
// CPU parallelism, and the measurement holds on a single-core host. The
// arms run in ABBA order with the minimum kept, like every wall-clock
// ratio in this suite.
func runShardBench(report *benchReport, seed int64) error {
	const (
		nBackends   = 4
		nShards     = 4
		armQueries  = 3
		qLatency    = 500 * time.Microsecond
		evalObjects = 16
	)
	u := disq.Recipes()
	objs := u.NewObjects(rand.New(rand.NewSource(seed+7)), 64)
	cfg := serve.Config{
		Domain:      "recipes",
		Objects:     objs,
		Shards:      nShards,
		Partition:   serve.PartitionHash,
		DefaultBObj: crowd.Cents(4),
		DefaultBPrc: crowd.Dollars(6),
	}
	for i := 0; i < nBackends; i++ {
		// Replicas: every backend draws the same seeded answer streams,
		// so a shard's estimates do not depend on which backend it lands
		// on — the configuration disq-serve -shards also builds.
		sim, err := disq.NewSimPlatform(u, disq.SimOptions{Seed: seed + 8})
		if err != nil {
			return err
		}
		cfg.Backends = append(cfg.Backends, serve.Backend{
			Name:     fmt.Sprintf("shard-%d", i),
			Platform: crowd.NewFaulty(sim, crowd.FaultyOptions{Latency: qLatency}),
		})
	}
	tier, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ctx := context.Background()
	exec := func(s int) (*serve.Result, error) {
		return tier.Execute(ctx, serve.Request{
			Statement: "SELECT Protein", MaxObjects: evalObjects, Shards: s,
		})
	}
	// Warm the plan once (a cache miss paying the latency-taxed
	// preprocess), excluded from both arms: the headline is online
	// scatter, not plan building.
	if _, err := exec(1); err != nil {
		return err
	}

	backendQuestions := func() []int64 {
		st := tier.Stats()
		out := make([]int64, len(st.Backends))
		for i, b := range st.Backends {
			out[i] = b.QuestionsAnswered
		}
		return out
	}
	runArm := func(s int) (int64, error) {
		runtime.GC()
		start := time.Now()
		for i := 0; i < armQueries; i++ {
			res, err := exec(s)
			if err != nil {
				return 0, err
			}
			if res.Shards != s {
				return 0, fmt.Errorf("shard bench: wanted %d shards, ran %d", s, res.Shards)
			}
		}
		return time.Since(start).Nanoseconds(), nil
	}

	q0 := backendQuestions()
	s1A, err := runArm(1)
	if err != nil {
		return err
	}
	q1 := backendQuestions()
	s4A, err := runArm(nShards)
	if err != nil {
		return err
	}
	q2 := backendQuestions()
	s4B, err := runArm(nShards)
	if err != nil {
		return err
	}
	s1B, err := runArm(1)
	if err != nil {
		return err
	}
	s1Ns, s4Ns := min(s1A, s1B), min(s4A, s4B)
	report.Benchmarks = append(report.Benchmarks,
		benchEntry{Name: "serve-sharded-s1", NsPerOp: s1Ns / armQueries},
		benchEntry{Name: "serve-sharded-s4", NsPerOp: s4Ns / armQueries},
	)
	if s4Ns > 0 {
		report.ShardScalingGain = float64(s1Ns) / float64(s4Ns)
	}
	// Per-backend work: the unsharded arm concentrates on the plan's home
	// backend (take the max delta); the sharded arm spreads 1/S of the
	// objects to each (take the mean delta). Question counts are
	// deterministic, so the first pass of each arm suffices.
	var q1max float64
	for i := range q1 {
		if d := float64(q1[i] - q0[i]); d > q1max {
			q1max = d
		}
	}
	var q4sum float64
	for i := range q2 {
		q4sum += float64(q2[i] - q1[i])
	}
	if q1max > 0 && len(q2) > 0 {
		report.ShardQuestionsPerBackend = q4sum / float64(len(q2)) / q1max
	}
	return nil
}
