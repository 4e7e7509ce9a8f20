package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// TargetProgram is one target's slice of the compiled plan: the
// intercept plus the linear and square index/coefficient pairs into the
// Support-order means layout. It is what a lazy evaluator needs to pay
// for ONE attribute at a time — the per-predicate sub-program of the
// query decomposition — instead of running every target through
// PredictFromMeans. The slices are copies; callers may keep them.
type TargetProgram struct {
	// Target is the plan target this program predicts.
	Target string
	// Intercept plus Σ LinCoef[k]·means[LinIdx[k]] plus
	// Σ SqCoef[k]·means[SqIdx[k]]² is the estimate.
	Intercept float64
	LinIdx    []int
	LinCoef   []float64
	SqIdx     []int
	SqCoef    []float64

	deps []int
}

// TargetProgram extracts the compiled sub-program of one plan target.
// The target must match exactly (plan targets, not platform synonyms —
// resolve those before calling).
func (pl *Plan) TargetProgram(target string) (*TargetProgram, error) {
	cp := pl.compiled()
	if cp.err != nil {
		return nil, cp.err
	}
	for _, tp := range cp.progs {
		if tp.Target == target {
			tp.LinIdx, tp.LinCoef = slices.Clone(tp.LinIdx), slices.Clone(tp.LinCoef)
			tp.SqIdx, tp.SqCoef = slices.Clone(tp.SqIdx), slices.Clone(tp.SqCoef)
			return &tp, nil
		}
	}
	return nil, fmt.Errorf("core: plan has no target %q", target)
}

// depsOf returns the sorted, deduplicated union of a program's linear
// and square indices.
func depsOf(lin, sq []int) []int {
	deps := slices.Concat(lin, sq)
	slices.Sort(deps)
	return slices.Compact(deps)
}

// Deps returns the Support-order indices of every attribute the program
// reads, sorted and deduplicated — the question set that must be paid
// for before Predict is meaningful. The slice is a copy.
func (tp *TargetProgram) Deps() []int {
	return append([]int(nil), tp.deps...)
}

// Predict applies the sub-program to means laid out in Support order.
// The term order — linear terms, then squares, each in compiled order —
// is exactly predictInto's, so for identical means the result is
// bit-identical to this target's entry in PredictFromMeans. Indices
// outside the program's Deps are never read.
func (tp *TargetProgram) Predict(means []float64) float64 {
	y := tp.Intercept
	for k, j := range tp.LinIdx {
		y += tp.LinCoef[k] * means[j]
	}
	for k, j := range tp.SqIdx {
		v := means[j]
		y += tp.SqCoef[k] * v * v
	}
	return y
}

// Truncate returns the sub-program restricted to its highest-impact
// terms: terms are ranked by |coefficient|·scale(j) (squares by
// |coefficient|·scale(j)²), and the smallest prefix whose cumulative
// impact reaches keep·total is retained — at least one term when any
// exists. scale(j) is the caller's prior spread for support attribute j
// (e.g. the platform's Sigma). The second return is the summed impact of
// the dropped terms — an a-priori slack the caller should add to its
// decision halfwidth, since the truncated Predict omits those terms
// entirely. This is the query-side analogue of the paper's budget
// assignment, which already concentrates answers on the attributes that
// move the estimate: a lazy predicate pays only for the terms that can
// change its outcome.
func (tp *TargetProgram) Truncate(scale func(j int) float64, keep float64) (*TargetProgram, float64) {
	type term struct {
		square bool
		k      int
		impact float64
	}
	terms := make([]term, 0, len(tp.LinIdx)+len(tp.SqIdx))
	total := 0.0
	for k, j := range tp.LinIdx {
		im := math.Abs(tp.LinCoef[k]) * scale(j)
		terms = append(terms, term{k: k, impact: im})
		total += im
	}
	for k, j := range tp.SqIdx {
		s := scale(j)
		im := math.Abs(tp.SqCoef[k]) * s * s
		terms = append(terms, term{square: true, k: k, impact: im})
		total += im
	}
	sort.SliceStable(terms, func(a, b int) bool { return terms[a].impact > terms[b].impact })
	out := &TargetProgram{Target: tp.Target, Intercept: tp.Intercept}
	kept, slack := 0.0, 0.0
	for i, t := range terms {
		if i > 0 && kept >= keep*total {
			slack += t.impact
			continue
		}
		kept += t.impact
		if t.square {
			out.SqIdx = append(out.SqIdx, tp.SqIdx[t.k])
			out.SqCoef = append(out.SqCoef, tp.SqCoef[t.k])
		} else {
			out.LinIdx = append(out.LinIdx, tp.LinIdx[t.k])
			out.LinCoef = append(out.LinCoef, tp.LinCoef[t.k])
		}
	}
	out.deps = depsOf(out.LinIdx, out.SqIdx)
	return out, slack
}

// Bound propagates per-attribute confidence halfwidths through the
// program: Σ |LinCoef|·hw plus, for squares, |SqCoef|·(2|mean|·hw + hw²)
// — the worst-case move of the estimate when each dep mean moves by its
// halfwidth. Both slices are in Support order; entries outside Deps are
// never read. This is the bound the lazy engine decides predicates and
// prunes top-k candidates against.
func (tp *TargetProgram) Bound(means, halfwidths []float64) float64 {
	b := 0.0
	for k, j := range tp.LinIdx {
		b += math.Abs(tp.LinCoef[k]) * halfwidths[j]
	}
	for k, j := range tp.SqIdx {
		hw := halfwidths[j]
		b += math.Abs(tp.SqCoef[k]) * (2*math.Abs(means[j])*hw + hw*hw)
	}
	return b
}
