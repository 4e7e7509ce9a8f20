package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"repro/internal/crowd"
	"repro/internal/domain"
)

// Plan is the output of the preprocessing phase: the budget distribution b
// and the linear regressions l that the online query-evaluation phase
// applies to every object.
type Plan struct {
	// Targets are the query attributes (canonical names).
	Targets []string
	// Weights are the error weights used (ω_t).
	Weights map[string]float64
	// Budget is the per-object value-question distribution b.
	Budget Assignment
	// Regressions maps each target to its learned formula.
	Regressions map[string]*Regression
	// Discovered is A_final: every attribute known when the plan was made,
	// in discovery order (targets first).
	Discovered []string
	// Dismantles is the number of dismantling questions asked.
	Dismantles int
	// PreprocessCost is what the offline phase actually spent.
	PreprocessCost crowd.Cost
	// TrainingExamples is the per-target N_2 actually used.
	TrainingExamples map[string]int
	// Stats is the final statistics snapshot (may be nil for baselines).
	Stats *Statistics

	// compiledCache holds the lazily compiled flat form of the online
	// phase (see compiled.go); an atomic pointer makes the lazy build
	// race-free without a lock. Plans must not be copied by value once
	// in use (they never are: the API traffics in *Plan).
	compiledCache atomic.Pointer[compiledPlan]
}

// PerObjectCost returns what evaluating one object costs online.
func (pl *Plan) PerObjectCost() crowd.Cost { return pl.Budget.Cost }

// PerObjectAnswers returns Σ b(a), the answers one object costs online.
func (pl *Plan) PerObjectAnswers() int64 {
	var n int64
	for _, c := range pl.Budget.Counts {
		if c > 0 {
			n += int64(c)
		}
	}
	return n
}

// EstimateObject runs the online phase for one object: ask b(a) value
// questions per selected attribute, average, and apply each target's
// regression. The returned map has one estimate per target.
//
// The plan is lazily compiled to a flat form on first use (no map
// iteration or lookup per call; see compiled.go), and the whole question
// set goes out as one Values batch — over crowdhttp that is one round
// trip per object instead of one per attribute.
func (pl *Plan) EstimateObject(p crowd.Platform, o *domain.Object) (map[string]float64, error) {
	if o == nil {
		return nil, errors.New("core: nil object")
	}
	cp := pl.compiled()
	if cp.err != nil {
		return nil, cp.err
	}
	means := make([]float64, len(cp.attrs))
	if err := cp.collectMeans(p, o, means); err != nil {
		return nil, err
	}
	ests := make([]float64, len(cp.targets))
	cp.predictInto(means, ests)
	out := make(map[string]float64, len(cp.targets))
	for i, t := range cp.targets {
		out[t] = ests[i]
	}
	return out, nil
}

// Formula renders the plan's formula for a target in the paper's notation,
// e.g. "Bmi* = 0.60·Bmi^(5) + 11.90·Heavy^(10) − 2.70·Attractive^(3) + 10.60".
func (pl *Plan) Formula(target string) string {
	reg := pl.Regressions[target]
	if reg == nil {
		return fmt.Sprintf("%s* = ? (no regression)", target)
	}
	type term struct {
		attr string
		coef float64
		n    int
	}
	var terms []term
	for i, a := range reg.Attributes {
		terms = append(terms, term{attr: a, coef: reg.Coefficients[i], n: pl.Budget.Counts[a]})
	}
	for i, a := range reg.SquareAttributes {
		terms = append(terms, term{attr: a + "²", coef: reg.SquareCoefficients[i], n: pl.Budget.Counts[a]})
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i].n > terms[j].n })
	var b strings.Builder
	fmt.Fprintf(&b, "%s* =", target)
	wrote := false
	for _, t := range terms {
		if t.n == 0 || t.coef == 0 {
			continue
		}
		if wrote {
			if t.coef >= 0 {
				b.WriteString(" +")
			} else {
				b.WriteString(" −")
			}
		} else {
			b.WriteString(" ")
			if t.coef < 0 {
				b.WriteString("−")
			}
		}
		fmt.Fprintf(&b, " %.3g·%s^(%d)", abs(t.coef), t.attr, t.n)
		wrote = true
	}
	if !wrote {
		fmt.Fprintf(&b, " %.4g", reg.Intercept)
		return b.String()
	}
	if reg.Intercept >= 0 {
		fmt.Fprintf(&b, " + %.3g", reg.Intercept)
	} else {
		fmt.Fprintf(&b, " − %.3g", -reg.Intercept)
	}
	return b.String()
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
