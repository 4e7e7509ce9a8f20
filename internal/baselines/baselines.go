// Package baselines implements every algorithm the paper compares DisQ
// against in Section 5:
//
//   - NaiveAverage (5.2): ask only about the query attributes, return the
//     mean answer; no preprocessing.
//   - SimpleDisQ (5.2): DisQ without the dismantling phase — "the best
//     that can be done today without using an expert".
//   - OnlyQueryAttributes (5.3.1): dismantle only the query attributes.
//   - TotallySeparated, Full, OneConnection, NaiveEstimations (5.3.2):
//     the multi-target statistics-collection variants.
//
// All of them share the Algorithm/Evaluator interfaces so the experiment
// harness can sweep over them uniformly.
package baselines

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/stats"
)

// Evaluator estimates query attributes for objects in the online phase.
type Evaluator interface {
	// Estimate returns one estimate per query target for the object.
	Estimate(p crowd.Platform, o *domain.Object) (map[string]float64, error)
	// PerObjectCost is the online spend per object.
	PerObjectCost() crowd.Cost
}

// Algorithm runs a preprocessing phase and returns an Evaluator.
type Algorithm interface {
	// Name identifies the algorithm in experiment outputs.
	Name() string
	// Prepare spends at most bPrc on the platform deriving an evaluator
	// whose per-object cost is at most bObj.
	Prepare(p crowd.Platform, q core.Query, bObj, bPrc crowd.Cost) (Evaluator, error)
}

// ---------------------------------------------------------------------------
// NaiveAverage

// NaiveAverage is the common practice the paper starts from: the online
// phase asks value questions only about the query attributes and returns
// their average; the budget is split across targets by the query weights.
type NaiveAverage struct{}

// Name implements Algorithm.
func (NaiveAverage) Name() string { return "NaiveAverage" }

// naiveEvaluator holds the per-target question counts.
type naiveEvaluator struct {
	targets []string
	counts  map[string]int
	cost    crowd.Cost
}

// Prepare implements Algorithm. NaiveAverage has no preprocessing phase;
// bPrc is ignored.
func (NaiveAverage) Prepare(p crowd.Platform, q core.Query, bObj, _ crowd.Cost) (Evaluator, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if bObj <= 0 {
		return nil, fmt.Errorf("baselines: non-positive per-object budget %v", bObj)
	}
	targets := make([]string, len(q.Targets))
	shares := make([]float64, len(q.Targets))
	var totalW float64
	for i, t := range q.Targets {
		targets[i] = p.Canonical(t)
		w := q.Weights[t]
		if w == 0 {
			w = 1
		}
		shares[i] = w
		totalW += w
	}
	counts := make(map[string]int, len(targets))
	var spent crowd.Cost
	price := func(t string) crowd.Cost {
		if p.IsBinary(t) {
			return p.Pricing().BinaryValue
		}
		return p.Pricing().NumericValue
	}
	// First pass: each target gets its weighted share.
	for i, t := range targets {
		share := crowd.Cost(float64(bObj) * shares[i] / totalW)
		n := int(share / price(t))
		counts[t] = n
		spent += crowd.Cost(n) * price(t)
	}
	// Second pass: spend any remainder round-robin where it still fits.
	for changed := true; changed; {
		changed = false
		for _, t := range targets {
			if spent+price(t) <= bObj {
				counts[t]++
				spent += price(t)
				changed = true
			}
		}
	}
	// Guarantee at least one question somewhere if the budget allows any.
	any := false
	for _, n := range counts {
		if n > 0 {
			any = true
		}
	}
	if !any {
		return nil, fmt.Errorf("baselines: per-object budget %v buys no question", bObj)
	}
	return &naiveEvaluator{targets: targets, counts: counts, cost: spent}, nil
}

// Estimate implements Evaluator: o.a_t^(n) — the plain answer average.
func (e *naiveEvaluator) Estimate(p crowd.Platform, o *domain.Object) (map[string]float64, error) {
	out := make(map[string]float64, len(e.targets))
	for _, t := range e.targets {
		n := e.counts[t]
		if n == 0 {
			// A target priced out of its share: fall back to one answer so
			// the estimate exists (the spend is attributed to the shared
			// remainder pass in practice).
			n = 1
		}
		ans, err := crowd.Value(p, o, t, n)
		if err != nil {
			return nil, err
		}
		out[t] = stats.Mean(ans)
	}
	return out, nil
}

// PerObjectCost implements Evaluator.
func (e *naiveEvaluator) PerObjectCost() crowd.Cost { return e.cost }

// ---------------------------------------------------------------------------
// DisQ and its single-pipeline variants

// DisQ is the paper's algorithm with the given option overrides.
type DisQ struct {
	// Label overrides the reported name (defaults to "DisQ").
	Label string
	// Options tunes the core pipeline (zero value = paper defaults).
	Options core.Options
}

// Name implements Algorithm.
func (d DisQ) Name() string {
	if d.Label != "" {
		return d.Label
	}
	return "DisQ"
}

// planEvaluator adapts a core.Plan to the Evaluator interface.
type planEvaluator struct{ plan *core.Plan }

// Prepare implements Algorithm.
func (d DisQ) Prepare(p crowd.Platform, q core.Query, bObj, bPrc crowd.Cost) (Evaluator, error) {
	plan, err := core.Preprocess(p, q, bObj, bPrc, d.Options)
	if err != nil {
		return nil, err
	}
	return &planEvaluator{plan: plan}, nil
}

// Estimate implements Evaluator.
func (e *planEvaluator) Estimate(p crowd.Platform, o *domain.Object) (map[string]float64, error) {
	return e.plan.EstimateObject(p, o)
}

// PerObjectCost implements Evaluator.
func (e *planEvaluator) PerObjectCost() crowd.Cost { return e.plan.PerObjectCost() }

// Plan exposes the underlying plan (for inspection in examples/benches).
func (e *planEvaluator) Plan() *core.Plan { return e.plan }

// SimpleDisQ is DisQ without the attribute-dismantling phase.
func SimpleDisQ() DisQ {
	return DisQ{Label: "SimpleDisQ", Options: core.Options{DisableDismantling: true}}
}

// OnlyQueryAttributes is DisQ restricted to dismantling the query
// attributes themselves.
func OnlyQueryAttributes() DisQ {
	return DisQ{Label: "OnlyQueryAttributes", Options: core.Options{OnlyQueryAttributes: true}}
}

// Full is the Section 5.3.2 variant that gathers statistics for all
// (attribute, target) pairs.
func Full() DisQ {
	return DisQ{Label: "Full", Options: core.Options{Collection: core.CollectFull}}
}

// OneConnection pairs each new attribute with exactly one query attribute.
func OneConnection() DisQ {
	return DisQ{Label: "OneConnection", Options: core.Options{Collection: core.CollectOneConnection}}
}

// NaiveEstimations selects pairs like DisQ but fills missing S_o entries
// with the average measured value instead of the graph estimate.
func NaiveEstimations() DisQ {
	return DisQ{Label: "NaiveEstimations", Options: core.Options{Estimation: core.EstimateAverage}}
}

// QuadraticDisQ is DisQ with degree-2 formulas (the non-linear assembling
// rules the paper's Section 7 proposes as future work).
func QuadraticDisQ() DisQ {
	return DisQ{Label: "DisQ(quadratic)", Options: core.Options{Quadratic: true}}
}

// ---------------------------------------------------------------------------
// TotallySeparated

// TotallySeparated solves each query attribute independently, splitting
// both budgets equally — the naive multi-target solution of Section 4.
type TotallySeparated struct {
	// Options tunes each per-target DisQ run.
	Options core.Options
}

// Name implements Algorithm.
func (TotallySeparated) Name() string { return "TotallySeparated" }

type separatedEvaluator struct {
	plans map[string]*core.Plan
	cost  crowd.Cost
}

// Prepare implements Algorithm.
func (ts TotallySeparated) Prepare(p crowd.Platform, q core.Query, bObj, bPrc crowd.Cost) (Evaluator, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	n := crowd.Cost(len(q.Targets))
	plans := make(map[string]*core.Plan, len(q.Targets))
	var cost crowd.Cost
	for _, t := range q.Targets {
		sub := core.Query{Targets: []string{t}}
		if w, ok := q.Weights[t]; ok {
			sub.Weights = map[string]float64{t: w}
		}
		plan, err := core.Preprocess(p, sub, bObj/n, bPrc/n, ts.Options)
		if err != nil {
			return nil, fmt.Errorf("baselines: separated run for %q: %w", t, err)
		}
		plans[p.Canonical(t)] = plan
		cost += plan.PerObjectCost()
	}
	if len(plans) != len(q.Targets) {
		return nil, errors.New("baselines: duplicate targets after canonicalization")
	}
	return &separatedEvaluator{plans: plans, cost: cost}, nil
}

// Estimate implements Evaluator.
func (e *separatedEvaluator) Estimate(p crowd.Platform, o *domain.Object) (map[string]float64, error) {
	out := make(map[string]float64, len(e.plans))
	for t, plan := range e.plans {
		est, err := plan.EstimateObject(p, o)
		if err != nil {
			return nil, err
		}
		out[t] = est[t]
	}
	return out, nil
}

// PerObjectCost implements Evaluator.
func (e *separatedEvaluator) PerObjectCost() crowd.Cost { return e.cost }
