package experiment

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/stats"
)

// AdaptiveSpec is one fixed-vs-adaptive comparison: the same plan,
// evaluated once with the paper's fixed per-object budget and once with
// the adaptive evaluator, on copy-on-write forks of the same platform so
// both modes consume identical answer streams.
type AdaptiveSpec struct {
	Name        string
	Platform    PlatformConfig
	Targets     []string
	BObj        crowd.Cost
	BPrc        crowd.Cost
	Config      adaptive.Config
	Reps        int // default 10
	EvalObjects int // default 100
	BaseSeed    int64
	Parallelism int
}

// AdaptiveModeResult aggregates one evaluation mode over the repetitions.
type AdaptiveModeResult struct {
	// Err is the mean weighted query error Σ_t ω_t·MSE_t over reps;
	// StdErr its standard error.
	Err    float64
	StdErr float64
	// Spend is the total online crowd spend across all reps (preprocessing
	// runs on its own ledger and is identical for both modes).
	Spend crowd.Cost
}

// AdaptiveGainResult is the outcome of one AdaptiveGain run.
type AdaptiveGainResult struct {
	Name  string
	Reps  int
	Fixed AdaptiveModeResult
	Adapt AdaptiveModeResult
	// SpendGain is fixed online spend / adaptive online spend (> 1 means
	// the adaptive evaluator answered the same query cheaper).
	SpendGain float64
	// Saved / Boosted total the adaptive evaluator's question counters.
	Saved   int64
	Boosted int64
}

// AdaptiveGain runs the comparison. Each repetition builds one seeded
// platform, snapshots it, and runs each mode on its own fork: the fixed
// mode is plan.EstimateObject over every evaluation object; the adaptive
// mode is an adaptive.Evaluator (calibrated on the same objects) over the
// same plan. Both forks preprocess identically (same answer streams →
// same plan), so any spend difference is pure online-evaluation policy.
func AdaptiveGain(spec AdaptiveSpec) (*AdaptiveGainResult, error) {
	if len(spec.Targets) == 0 {
		return nil, errors.New("experiment: no targets")
	}
	reps := spec.Reps
	if reps == 0 {
		reps = 10
	}
	evalN := spec.EvalObjects
	if evalN == 0 {
		evalN = 100
	}
	par := spec.Parallelism
	if par == 0 {
		par = core.DefaultParallelism()
	}

	base := Spec{
		Name:     spec.Name,
		Platform: spec.Platform,
		Targets:  spec.Targets,
		BObj:     spec.BObj, BPrc: spec.BPrc,
		Parallelism: spec.Parallelism,
	}
	type repRes struct {
		errFixed, errAdapt     float64
		spendFixed, spendAdapt crowd.Cost
		saved, boosted         int64
		err                    error
	}
	outs := make([]repRes, reps)
	core.ForEach(reps, par, func(rep int) {
		seed := repSeed(spec.Name, spec.BaseSeed, rep)
		env, err := buildRepEnv(base, seed, evalN)
		if err != nil {
			outs[rep] = repRes{err: err}
			return
		}
		q := core.Query{Targets: env.targets, Weights: env.weights}

		// The fixed arm is the evaluator in its disabled mode, which takes
		// the fixed-budget path (core.Plan.EstimateObject) itself.
		runMode := func(cfg adaptive.Config) (float64, crowd.Cost, adaptive.Stats, error) {
			fork := env.snap.Fork()
			plat := spec.Platform.wrap(fork, seed)
			plan, err := core.Preprocess(plat, q, spec.BObj, spec.BPrc, core.Options{})
			if err != nil {
				return 0, 0, adaptive.Stats{}, err
			}
			ev, err := adaptive.New(plat, plan, cfg)
			if err != nil {
				return 0, 0, adaptive.Stats{}, err
			}
			if err := ev.Calibrate(env.evalObjs); err != nil {
				return 0, 0, adaptive.Stats{}, err
			}
			werr, err := WeightedErrorFunc(env.evalObjs, env.targets, env.weights, env.truths, par, ev.Estimate)
			return werr, fork.Ledger().Spent(), ev.Stats(), err
		}

		ef, sf, _, err := runMode(adaptive.Disabled())
		if err != nil {
			outs[rep] = repRes{err: fmt.Errorf("fixed: %w", err)}
			return
		}
		ea, sa, ast, err := runMode(spec.Config)
		if err != nil {
			outs[rep] = repRes{err: fmt.Errorf("adaptive: %w", err)}
			return
		}
		outs[rep] = repRes{
			errFixed: ef, errAdapt: ea,
			spendFixed: sf, spendAdapt: sa,
			saved: ast.QuestionsSkipped, boosted: ast.Boosted,
		}
	})

	res := &AdaptiveGainResult{Name: spec.Name, Reps: reps}
	fixedErrs := make([]float64, 0, reps)
	adaptErrs := make([]float64, 0, reps)
	for rep, out := range outs {
		if out.err != nil {
			return nil, fmt.Errorf("experiment: rep %d: %w", rep, out.err)
		}
		fixedErrs = append(fixedErrs, out.errFixed)
		adaptErrs = append(adaptErrs, out.errAdapt)
		res.Fixed.Spend += out.spendFixed
		res.Adapt.Spend += out.spendAdapt
		res.Saved += out.saved
		res.Boosted += out.boosted
	}
	res.Fixed.Err, res.Fixed.StdErr = meanStderr(fixedErrs)
	res.Adapt.Err, res.Adapt.StdErr = meanStderr(adaptErrs)
	if res.Adapt.Spend > 0 {
		res.SpendGain = float64(res.Fixed.Spend) / float64(res.Adapt.Spend)
	}
	return res, nil
}

func meanStderr(xs []float64) (float64, float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	m := stats.Mean(xs)
	if len(xs) < 2 {
		return m, 0
	}
	sd, _ := stats.StdDev(xs)
	return m, sd / math.Sqrt(float64(len(xs)))
}

// RenderAdaptive writes the fixed-vs-adaptive comparison table.
func RenderAdaptive(b *strings.Builder, title string, results []*AdaptiveGainResult) error {
	if len(results) == 0 {
		return errors.New("experiment: no adaptive results")
	}
	fmt.Fprintln(b, title)
	fmt.Fprintf(b, "%-24s %12s %12s %12s %12s %8s %8s %8s\n",
		"spec", "fixed err", "adapt err", "fixed $", "adapt $", "gain", "saved", "boosted")
	for _, r := range results {
		fmt.Fprintf(b, "%-24s %12.5f %12.5f %12s %12s %7.2fx %8d %8d\n",
			r.Name, r.Fixed.Err, r.Adapt.Err, r.Fixed.Spend, r.Adapt.Spend,
			r.SpendGain, r.Saved, r.Boosted)
	}
	return nil
}

// adaptiveFigure regenerates the adaptive-budget comparison: equal-quality
// estimates at lower online spend via sequential stopping (with bandit
// reallocation of the savings), on two domains.
func adaptiveFigure() Figure {
	return Figure{
		ID: "adaptive",
		Title: "Adaptive online budgets: sequential stopping + reallocation vs " +
			"the paper's fixed per-object budget",
		Run: func(opts RunOptions) (string, error) {
			reps := opts.Reps
			if reps == 0 {
				reps = 10
			}
			evalN := opts.EvalObjects
			if evalN == 0 {
				evalN = 100
			}
			stopOnly := adaptive.Defaults()
			stopOnly.Weight, stopOnly.Reallocate = false, false
			domains := []struct {
				name, domain, target string
			}{
				{"recipes/Protein", "recipes", "Protein"},
				{"pictures/Bmi", "pictures", "Bmi"},
			}
			var specs []AdaptiveSpec
			for _, d := range domains {
				for _, mode := range []struct {
					suffix string
					cfg    adaptive.Config
				}{{"stop", stopOnly}, {"full", adaptive.Defaults()}} {
					specs = append(specs, AdaptiveSpec{
						Name:     d.name + "/" + mode.suffix,
						Platform: PlatformConfig{Domain: d.domain},
						Targets:  []string{d.target},
						BObj:     crowd.Cents(4), BPrc: crowd.Dollars(20),
						Config: mode.cfg,
					})
				}
			}
			var results []*AdaptiveGainResult
			for _, s := range specs {
				s.Reps = reps
				s.EvalObjects = evalN
				s.BaseSeed = opts.Seed
				r, err := AdaptiveGain(s)
				if err != nil {
					return "", err
				}
				results = append(results, r)
			}
			var b strings.Builder
			if err := RenderAdaptive(&b, "adaptive vs fixed online evaluation:", results); err != nil {
				return "", err
			}
			return b.String(), nil
		},
	}
}
