// Package experiment is the harness that regenerates every table and
// figure of the paper's Section 5. It runs algorithm comparisons over
// seeded simulated platforms, repeats each configuration (the paper uses
// 30 repetitions and averages), computes the paper's weighted query error,
// and renders text tables/series.
package experiment

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/stats"
)

// PlatformConfig describes how to build the simulated platform of one
// repetition.
type PlatformConfig struct {
	// Domain is a built-in universe name ("pictures", "recipes", "houses",
	// "laptops") or "synthetic".
	Domain string
	// Synthetic parameterizes the synthetic universe when Domain is
	// "synthetic".
	Synthetic domain.SyntheticConfig
	// SpamRate / FilterEfficiency configure malicious-worker simulation.
	SpamRate         float64
	FilterEfficiency float64
	// DisableUnification turns off synonym merging (Section 5.4 ablation).
	DisableUnification bool
	// IrrelevantRate pollutes dismantling answers (Section 5.4 ablation).
	IrrelevantRate float64
	// Pricing overrides the payment scheme (zero value = paper default).
	Pricing crowd.Pricing
	// Faults, when non-zero, wraps each repetition's simulator in
	// crowd.NewFaulty (seeded per repetition unless Faults.Seed is set)
	// plus a crowd.NewRetry recovery layer, so algorithms run against a
	// flaky crowd with transparent retries — the deployment shape the
	// crowdhttp transport handles remotely. Injected faults are
	// pre-execution, so a fault-injected run converges to the same
	// answers (and the same results) as a fault-free one.
	Faults crowd.FaultyOptions
	// Retry tunes the recovery layer used with Faults (zero = defaults).
	Retry crowd.RetryOptions
	// BatchSize shapes the value-question batching of each repetition's
	// platform (crowd.NewBatched): 0 leaves the platform's own exchange
	// shape, < 0 sends one question per exchange (the unbatched control),
	// > 0 batches up to that many questions per exchange. Any setting
	// yields byte-identical results — answers are memoized per question
	// identity — so experiments can compare exchange granularities
	// without perturbing the science.
	BatchSize int
}

// Build creates the universe and platform for one repetition seed.
func (pc PlatformConfig) Build(seed int64) (*crowd.SimPlatform, error) {
	var u *domain.Universe
	if pc.Domain == "synthetic" {
		var err error
		u, err = domain.Synthetic(rand.New(rand.NewSource(seed^0x51f7)), pc.Synthetic)
		if err != nil {
			return nil, err
		}
	} else {
		build, ok := domain.Registry()[pc.Domain]
		if !ok {
			return nil, fmt.Errorf("experiment: unknown domain %q", pc.Domain)
		}
		u = build()
	}
	return crowd.NewSim(u, crowd.SimOptions{
		Seed:               seed,
		Pricing:            pc.Pricing,
		SpamRate:           pc.SpamRate,
		FilterEfficiency:   pc.FilterEfficiency,
		DisableUnification: pc.DisableUnification,
		IrrelevantRate:     pc.IrrelevantRate,
	})
}

// wrap applies the configured fault + retry layers to one repetition's
// simulator (identity when no faults are configured), then the batching
// shape outermost so evaluation exercises the requested exchange
// granularity.
func (pc PlatformConfig) wrap(p *crowd.SimPlatform, seed int64) crowd.Platform {
	out := crowd.Platform(p)
	if pc.Faults != (crowd.FaultyOptions{}) {
		f := pc.Faults
		if f.Seed == 0 {
			f.Seed = seed
		}
		out = crowd.NewRetry(crowd.NewFaulty(p, f), pc.Retry)
	}
	return crowd.NewBatched(out, pc.BatchSize)
}

// Spec is one experiment configuration: a query over a domain, the two
// budgets, and the algorithms to compare.
type Spec struct {
	Name        string
	Platform    PlatformConfig
	Targets     []string
	BObj        crowd.Cost
	BPrc        crowd.Cost
	Algorithms  []baselines.Algorithm
	Reps        int // default 30
	EvalObjects int // default 100
	BaseSeed    int64
	// Parallelism caps the fan-out width at every layer of the harness
	// (budget points, repetitions, evaluation objects). 0 means "as wide
	// as the shared GOMAXPROCS pool allows"; 1 forces a strictly
	// sequential run (no goroutines), which must produce byte-identical
	// results — answer streams are derived per question, not from shared
	// RNG state, so execution order cannot leak into them.
	Parallelism int
}

// parallelism resolves the spec's fan-out width.
func (s Spec) parallelism() int {
	if s.Parallelism != 0 {
		return s.Parallelism
	}
	return core.DefaultParallelism()
}

// AlgResult aggregates one algorithm's weighted query errors over the
// repetitions.
type AlgResult struct {
	Algorithm string
	// Mean is the average weighted query error Er(Q(D)*) over reps.
	Mean float64
	// StdErr is the standard error of that mean.
	StdErr float64
	// PerRep holds the individual repetition errors with failed reps
	// dropped (the slice statistics are computed over). Because the
	// compaction loses the repetition index, per-rep *pairing* across
	// algorithms must use RepErrs instead.
	PerRep []float64
	// RepErrs holds one entry per repetition, indexed by repetition
	// number, with NaN marking a failed rep. This is the alignment-safe
	// view: RepErrs[i] of two algorithms always refers to the same
	// shared platform.
	RepErrs []float64
	// Failures counts repetitions the algorithm could not complete (e.g.
	// the budget did not buy a single question).
	Failures int
}

// repSeed derives a deterministic per-repetition seed from the spec name.
func repSeed(name string, base int64, rep int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%d", name, base, rep)
	return int64(h.Sum64())
}

// Run executes the spec: Reps independent repetitions, each with its own
// seeded platform shared by all algorithms (reproducing the paper's
// recorded-answers reuse, "so that results of multiple runs/algorithms may
// be compared in equivalent settings"), evaluated on the same objects with
// the paper's weighted error ω_t = 1/Var(O.a_t).
func Run(spec Spec) ([]AlgResult, error) {
	results, _, err := RunWithStats(spec)
	return results, err
}

// RunWithStats is Run plus the aggregated fault/retry counters of all
// repetitions' platforms — zero when the spec injects no faults. The
// counters report how flaky the (simulated) crowd was and how much retry
// work recovering from it took, the operational half of a fault-injected
// experiment.
func RunWithStats(spec Spec) ([]AlgResult, crowd.FaultStats, error) {
	var fstats crowd.FaultStats
	if len(spec.Algorithms) == 0 {
		return nil, fstats, errors.New("experiment: no algorithms")
	}
	if len(spec.Targets) == 0 {
		return nil, fstats, errors.New("experiment: no targets")
	}
	reps := spec.Reps
	if reps == 0 {
		reps = 30
	}
	evalN := spec.EvalObjects
	if evalN == 0 {
		evalN = 100
	}

	outs := make([]repOut, reps)
	core.ForEach(reps, spec.parallelism(), func(rep int) {
		outs[rep] = runOneRep(spec, repSeed(spec.Name, spec.BaseSeed, rep), evalN)
	})
	results, fstats, _, err := assembleResults(spec.Algorithms, outs)
	return results, fstats, err
}

// repOut is the outcome of one repetition at one budget point.
type repOut struct {
	errs  []float64 // per algorithm; NaN = failure
	stats crowd.FaultStats
	spent crowd.Cost // platform base-ledger spend after all algorithms
	err   error
}

// assembleResults aggregates the per-repetition outcomes into per-algorithm
// statistics, merged fault counters and the per-rep platform spends. The
// first failed repetition (in rep order) fails the whole set.
func assembleResults(algs []baselines.Algorithm, outs []repOut) ([]AlgResult, crowd.FaultStats, []crowd.Cost, error) {
	var fstats crowd.FaultStats
	results := make([]AlgResult, len(algs))
	for i, alg := range algs {
		results[i].Algorithm = alg.Name()
		results[i].RepErrs = make([]float64, len(outs))
	}
	spends := make([]crowd.Cost, len(outs))
	for rep, out := range outs {
		if out.err != nil {
			return nil, fstats, nil, fmt.Errorf("experiment: rep %d: %w", rep, out.err)
		}
		fstats.Merge(out.stats)
		spends[rep] = out.spent
		for i, e := range out.errs {
			results[i].RepErrs[rep] = e
			if e != e { // NaN marks an algorithm failure for this rep
				results[i].Failures++
				continue
			}
			results[i].PerRep = append(results[i].PerRep, e)
		}
	}
	for i := range results {
		r := &results[i]
		if len(r.PerRep) == 0 {
			continue
		}
		r.Mean = stats.Mean(r.PerRep)
		if len(r.PerRep) > 1 {
			sd, _ := stats.StdDev(r.PerRep)
			r.StdErr = sd / math.Sqrt(float64(len(r.PerRep)))
		}
	}
	return results, fstats, spends, nil
}

// repEnv is one repetition's budget-independent environment: the seeded
// platform, canonical targets, oracle weights, shared evaluation objects
// and their truths, plus a copy-on-write snapshot of the platform's answer
// store taken after all of those objects exist. A sweep builds the
// environment once per repetition and forks the snapshot per budget point;
// every fork replays the identical answer streams (and object ids) a
// freshly built platform would produce, while the simulation work is paid
// once.
type repEnv struct {
	root     *crowd.SimPlatform
	snap     *crowd.SimSnapshot
	targets  []string
	weights  map[string]float64
	evalObjs []*domain.Object
	truths   map[string][]float64
}

// buildRepEnv constructs one repetition's environment from its seed.
func buildRepEnv(spec Spec, seed int64, evalN int) (*repEnv, error) {
	p, err := spec.Platform.Build(seed)
	if err != nil {
		return nil, err
	}
	u := p.Universe()
	// Canonical target names.
	targets := make([]string, len(spec.Targets))
	for i, t := range spec.Targets {
		c, err := u.Canonical(t)
		if err != nil {
			return nil, err
		}
		targets[i] = c
	}
	// The paper fixes ω_t = 1/Var(O.a_t); the experimenters knew the
	// variances from the dataset, so we compute them from a pilot truth
	// sample (not from crowd answers).
	pilotRng := rand.New(rand.NewSource(seed ^ 0x9a7))
	pilot := u.NewObjects(pilotRng, 500)
	weights := make(map[string]float64, len(targets))
	for _, t := range targets {
		vals := make([]float64, len(pilot))
		for i, o := range pilot {
			vals[i], _ = u.Truth(o, t)
		}
		v, err := stats.Variance(vals)
		if err != nil || v <= 0 {
			weights[t] = 1
		} else {
			weights[t] = 1 / v
		}
	}
	// Shared evaluation objects.
	evalRng := rand.New(rand.NewSource(seed ^ 0x3c6e))
	evalObjs := u.NewObjects(evalRng, evalN)
	truths := make(map[string][]float64, len(targets))
	for _, t := range targets {
		col := make([]float64, len(evalObjs))
		for i, o := range evalObjs {
			col[i], _ = u.Truth(o, t)
		}
		truths[t] = col
	}
	// Snapshot after every shared object exists, so forks allocate example
	// ids from the same watermark a rebuilt platform would.
	return &repEnv{
		root:     p,
		snap:     p.Snapshot(),
		targets:  targets,
		weights:  weights,
		evalObjs: evalObjs,
		truths:   truths,
	}, nil
}

// runRepOn wraps the repetition's platform view in the configured
// fault/retry/batch layers, runs all algorithms and returns the
// per-algorithm weighted errors plus the rep's fault counters and total
// platform spend.
func runRepOn(spec Spec, sim *crowd.SimPlatform, seed int64, env *repEnv) repOut {
	plat := spec.Platform.wrap(sim, seed)
	q := core.Query{Targets: env.targets, Weights: env.weights}
	out := make([]float64, len(spec.Algorithms))
	for ai, alg := range spec.Algorithms {
		ev, err := alg.Prepare(plat, q, spec.BObj, spec.BPrc)
		if err != nil {
			// An algorithm that cannot operate at this budget point is a
			// data point ("budget buys nothing"), not a harness failure.
			out[ai] = nan()
			continue
		}
		werr, err := WeightedError(plat, ev, env.evalObjs, env.targets, env.weights, env.truths, spec.parallelism())
		if err != nil {
			return repOut{err: fmt.Errorf("%s: %w", alg.Name(), err)}
		}
		out[ai] = werr
	}
	return repOut{errs: out, spent: sim.Ledger().Spent(), stats: plat.Stats().FaultStats}
}

// runOneRep builds the repetition's environment and runs all algorithms on
// its root platform (the rebuild-per-point path).
func runOneRep(spec Spec, seed int64, evalN int) repOut {
	env, err := buildRepEnv(spec, seed, evalN)
	if err != nil {
		return repOut{err: err}
	}
	return runRepOn(spec, env.root, seed, env)
}

func nan() float64 { return math.NaN() }

// WeightedError evaluates the evaluator on the objects and returns the
// paper's query error Σ_t ω_t·MSE_t. The per-object estimates fan out up
// to parallelism wide over the shared computation pool (1 = sequential);
// estimates land in input order so the result does not depend on
// scheduling.
func WeightedError(
	p crowd.Platform,
	ev baselines.Evaluator,
	objs []*domain.Object,
	targets []string,
	weights map[string]float64,
	truths map[string][]float64,
	parallelism int,
) (float64, error) {
	return WeightedErrorFunc(objs, targets, weights, truths, parallelism,
		func(o *domain.Object) (map[string]float64, error) {
			return ev.Estimate(p, o)
		})
}

// WeightedErrorFunc is WeightedError over a bare estimate function, for
// evaluators that are not baselines.Algorithm-shaped (e.g. the adaptive
// online evaluator).
func WeightedErrorFunc(
	objs []*domain.Object,
	targets []string,
	weights map[string]float64,
	truths map[string][]float64,
	parallelism int,
	estimate func(*domain.Object) (map[string]float64, error),
) (float64, error) {
	ests, err := core.EvaluateBatchFunc(objs, parallelism, estimate)
	if err != nil {
		return 0, err
	}
	preds := make(map[string][]float64, len(targets))
	for _, t := range targets {
		col := make([]float64, len(objs))
		for i, est := range ests {
			col[i] = est[t]
		}
		preds[t] = col
	}
	var total float64
	for _, t := range targets {
		mse, err := stats.MeanSquaredError(preds[t], truths[t])
		if err != nil {
			return 0, err
		}
		w := weights[t]
		if w == 0 {
			w = 1
		}
		total += w * mse
	}
	return total, nil
}

// SweepVariable selects which budget a sweep varies.
type SweepVariable int

const (
	// VaryBPrc varies the preprocessing budget (Figure 1 top row).
	VaryBPrc SweepVariable = iota
	// VaryBObj varies the per-object budget (Figure 1 bottom row).
	VaryBObj
)

// String names the variable.
func (v SweepVariable) String() string {
	if v == VaryBObj {
		return "B_obj"
	}
	return "B_prc"
}

// SweepPoint is the outcome of one budget value.
type SweepPoint struct {
	Budget  crowd.Cost
	Results []AlgResult
	// RepSpend is each repetition's total platform spend (base ledger:
	// preprocessing plus evaluation charges) at this budget point, indexed
	// by repetition. The shared-snapshot and rebuild-per-point sweep paths
	// must agree on it exactly — each fork charges its own ledger for
	// every answer it consumes, cached or not.
	RepSpend []crowd.Cost
}

// Sweep is an error-vs-budget curve set (one series per algorithm).
type Sweep struct {
	Name   string
	Vary   SweepVariable
	Points []SweepPoint
}

// withBudget returns the spec with the varied budget set to b.
func (s Spec) withBudget(vary SweepVariable, b crowd.Cost) Spec {
	if vary == VaryBPrc {
		s.BPrc = b
	} else {
		s.BObj = b
	}
	return s
}

// joinSweepErrors wraps each failed budget point's error with its budget
// and aggregates them, so a sweep reports every failing point rather than
// just the first.
func joinSweepErrors(vary SweepVariable, budgets []crowd.Cost, errs []error) error {
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("experiment: sweep %v=%v: %w", vary, budgets[i], err)
		}
	}
	return errors.Join(errs...)
}

// RunSweep runs the spec once per budget value. Platform seeds depend only
// on the repetition, so the same answer streams are reused across budget
// points (the paper's recorded-answer methodology) — literally: each
// repetition builds its platform once and every budget point runs on a
// copy-on-write fork of it (crowd.SimSnapshot), so an answer is simulated
// once per repetition no matter how many budget points consume it, while
// every fork keeps its own ledger and the results stay bit-identical to
// rebuilding per point (RunSweepRebuild, pinned by test). Repetitions run
// concurrently over the shared computation pool with the budget points
// fanning out below them; results are assembled in budget order, and with
// Spec.Parallelism == 1 the whole sweep is strictly sequential.
func RunSweep(spec Spec, vary SweepVariable, budgets []crowd.Cost) (*Sweep, error) {
	if len(budgets) == 0 {
		return nil, errors.New("experiment: empty budget grid")
	}
	if len(spec.Algorithms) == 0 {
		return nil, errors.New("experiment: no algorithms")
	}
	if len(spec.Targets) == 0 {
		return nil, errors.New("experiment: no targets")
	}
	reps := spec.Reps
	if reps == 0 {
		reps = 30
	}
	evalN := spec.EvalObjects
	if evalN == 0 {
		evalN = 100
	}
	outs := make([][]repOut, len(budgets)) // [budget point][repetition]
	for i := range outs {
		outs[i] = make([]repOut, reps)
	}
	core.ForEach(reps, spec.parallelism(), func(rep int) {
		seed := repSeed(spec.Name, spec.BaseSeed, rep)
		env, err := buildRepEnv(spec, seed, evalN)
		if err != nil {
			for i := range outs {
				outs[i][rep] = repOut{err: err}
			}
			return
		}
		core.ForEach(len(budgets), spec.parallelism(), func(i int) {
			outs[i][rep] = runRepOn(spec.withBudget(vary, budgets[i]), env.snap.Fork(), seed, env)
		})
	})
	sw := &Sweep{Name: spec.Name, Vary: vary, Points: make([]SweepPoint, len(budgets))}
	errs := make([]error, len(budgets))
	for i := range budgets {
		res, _, spends, err := assembleResults(spec.Algorithms, outs[i])
		if err != nil {
			errs[i] = err
			continue
		}
		sw.Points[i] = SweepPoint{Budget: budgets[i], Results: res, RepSpend: spends}
	}
	if err := joinSweepErrors(vary, budgets, errs); err != nil {
		return nil, err
	}
	return sw, nil
}

// RunSweepRebuild is RunSweep without answer sharing: every (budget point,
// repetition) builds its platform from scratch, the paper's original
// methodology restated naively. It exists as the reference implementation
// the shared path is verified against (TestSweepSharedDeterminism) and as
// the rebuild baseline the sweep benchmarks compare to.
func RunSweepRebuild(spec Spec, vary SweepVariable, budgets []crowd.Cost) (*Sweep, error) {
	if len(budgets) == 0 {
		return nil, errors.New("experiment: empty budget grid")
	}
	reps := spec.Reps
	if reps == 0 {
		reps = 30
	}
	evalN := spec.EvalObjects
	if evalN == 0 {
		evalN = 100
	}
	sw := &Sweep{Name: spec.Name, Vary: vary, Points: make([]SweepPoint, len(budgets))}
	errs := make([]error, len(budgets))
	core.ForEach(len(budgets), spec.parallelism(), func(i int) {
		pt := spec.withBudget(vary, budgets[i])
		if len(pt.Algorithms) == 0 {
			errs[i] = errors.New("experiment: no algorithms")
			return
		}
		if len(pt.Targets) == 0 {
			errs[i] = errors.New("experiment: no targets")
			return
		}
		outs := make([]repOut, reps)
		core.ForEach(reps, pt.parallelism(), func(rep int) {
			outs[rep] = runOneRep(pt, repSeed(pt.Name, pt.BaseSeed, rep), evalN)
		})
		res, _, spends, err := assembleResults(pt.Algorithms, outs)
		if err != nil {
			errs[i] = err
			return
		}
		sw.Points[i] = SweepPoint{Budget: budgets[i], Results: res, RepSpend: spends}
	})
	if err := joinSweepErrors(vary, budgets, errs); err != nil {
		return nil, err
	}
	return sw, nil
}

// WinRate returns, for each algorithm, the fraction of repetitions in
// which it achieved a strictly lower error than the named reference
// algorithm (comparing the same repetition's shared platform). The paper
// notes that averages do not hide reversals — "all observations are true
// in general as most results are very close to the average" — and this is
// the statistic that verifies it.
//
// Pairing uses the rep-indexed RepErrs so algorithm i's repetition k is
// always compared against the reference's repetition k; repetitions where
// either side failed (NaN) are excluded from both numerator and
// denominator. (Pairing over the compacted PerRep would silently shift
// the alignment as soon as failure counts differ.) Hand-built results
// without RepErrs fall back to PerRep, which is only correct when neither
// side had failures.
func WinRate(results []AlgResult, reference string) (map[string]float64, error) {
	var ref *AlgResult
	for i := range results {
		if results[i].Algorithm == reference {
			ref = &results[i]
		}
	}
	if ref == nil {
		return nil, fmt.Errorf("experiment: reference algorithm %q not in results", reference)
	}
	out := make(map[string]float64, len(results))
	for _, r := range results {
		if r.Algorithm == reference {
			continue
		}
		rErrs, refErrs := r.RepErrs, ref.RepErrs
		if rErrs == nil || refErrs == nil {
			rErrs, refErrs = r.PerRep, ref.PerRep
		}
		n := len(rErrs)
		if len(refErrs) < n {
			n = len(refErrs)
		}
		wins, pairs := 0, 0
		for i := 0; i < n; i++ {
			a, b := rErrs[i], refErrs[i]
			if a != a || b != b { // either side failed this rep
				continue
			}
			pairs++
			if a < b {
				wins++
			}
		}
		if pairs == 0 {
			continue
		}
		out[r.Algorithm] = float64(wins) / float64(pairs)
	}
	return out, nil
}

// RequiredBudget scans a sweep for the smallest budget at which each
// algorithm reaches each target error (Figure 2). It returns a map
// algorithm → threshold-index → budget (-1 when never reached).
func RequiredBudget(sw *Sweep, thresholds []float64) map[string][]crowd.Cost {
	out := make(map[string][]crowd.Cost)
	for _, pt := range sw.Points {
		for _, r := range pt.Results {
			if _, ok := out[r.Algorithm]; !ok {
				cs := make([]crowd.Cost, len(thresholds))
				for i := range cs {
					cs[i] = -1
				}
				out[r.Algorithm] = cs
			}
			if len(r.PerRep) == 0 {
				continue
			}
			for ti, th := range thresholds {
				if r.Mean <= th && out[r.Algorithm][ti] == -1 {
					out[r.Algorithm][ti] = pt.Budget
				}
			}
		}
	}
	return out
}
