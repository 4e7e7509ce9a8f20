package core

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/stats"
)

// compiledPlan is the flat, allocation-free form of a Plan's online
// phase. Compilation resolves every map lookup once: the budget support
// becomes an attribute slice with per-attribute counts, and each target's
// regression becomes index/coefficient slices into the shared means
// buffer. The term order of Regression.Predict is preserved exactly
// (linear terms in Regression.Attributes order, then square terms), so a
// compiled prediction is bit-identical to the interpreted one — the
// golden and e2e tests rely on that.
type compiledPlan struct {
	// err is a plan-shape error (e.g. a target without a regression),
	// surfaced on every evaluation exactly as the interpreted path did.
	err error

	// attrs is the budget support (counts > 0), sorted for determinism;
	// counts and questions are aligned with it.
	attrs     []string
	counts    []int
	questions []crowd.ValueQuestion

	// targets and progs are aligned: progs[t] is target t's prediction
	// program over the shared means buffer.
	targets []string
	progs   []TargetProgram
}

// compilePlan flattens a plan. A nil regression is recorded as cp.err
// rather than returned, so the (rare) broken plan keeps failing with the
// same error on every call while the cache stays valid.
func compilePlan(pl *Plan) *compiledPlan {
	cp := &compiledPlan{targets: append([]string(nil), pl.Targets...)}
	cp.attrs = make([]string, 0, len(pl.Budget.Counts))
	for a, n := range pl.Budget.Counts {
		if n > 0 {
			cp.attrs = append(cp.attrs, a)
		}
	}
	sort.Strings(cp.attrs)
	index := make(map[string]int, len(cp.attrs))
	cp.counts = make([]int, len(cp.attrs))
	cp.questions = make([]crowd.ValueQuestion, len(cp.attrs))
	for i, a := range cp.attrs {
		index[a] = i
		cp.counts[i] = pl.Budget.Counts[a]
		cp.questions[i] = crowd.ValueQuestion{Attr: a, N: cp.counts[i]}
	}
	cp.progs = make([]TargetProgram, 0, len(cp.targets))
	for _, t := range cp.targets {
		reg := pl.Regressions[t]
		if reg == nil {
			cp.err = fmt.Errorf("core: plan has no regression for target %q", t)
			return cp
		}
		tp := TargetProgram{Target: t, Intercept: reg.Intercept}
		for i, a := range reg.Attributes {
			if j, ok := index[a]; ok {
				tp.LinIdx = append(tp.LinIdx, j)
				tp.LinCoef = append(tp.LinCoef, reg.Coefficients[i])
			}
		}
		for i, a := range reg.SquareAttributes {
			if j, ok := index[a]; ok {
				tp.SqIdx = append(tp.SqIdx, j)
				tp.SqCoef = append(tp.SqCoef, reg.SquareCoefficients[i])
			}
		}
		tp.deps = depsOf(tp.LinIdx, tp.SqIdx)
		cp.progs = append(cp.progs, tp)
	}
	return cp
}

// compiled returns the plan's compiled form, building it at most once.
// The cache is an atomic pointer rather than a sync.Once so Plan values
// stay assignable (UnmarshalJSON resets fields in place); a racing
// duplicate compilation is harmless and the CAS keeps one winner.
func (pl *Plan) compiled() *compiledPlan {
	if cp := pl.compiledCache.Load(); cp != nil {
		return cp
	}
	cp := compilePlan(pl)
	if !pl.compiledCache.CompareAndSwap(nil, cp) {
		return pl.compiledCache.Load()
	}
	return cp
}

// Questions enumerates every value question the plan's budget assignment
// asks per object — the statically known question set that makes online
// evaluation batchable. The paper's b is uniform across objects, so the
// set is object-independent; the returned slice is a copy the caller may
// keep.
func (pl *Plan) Questions() ([]crowd.ValueQuestion, error) {
	cp := pl.compiled()
	if cp.err != nil {
		return nil, cp.err
	}
	return append([]crowd.ValueQuestion(nil), cp.questions...), nil
}

// Support returns the plan's budget support: the attributes with
// positive counts, in the compiled (sorted) order, aligned with their
// per-object answer counts b(a). The order is exactly the means layout
// PredictFromMeans expects; the slices are copies the caller may keep.
func (pl *Plan) Support() (attrs []string, counts []int, err error) {
	cp := pl.compiled()
	if cp.err != nil {
		return nil, nil, cp.err
	}
	return append([]string(nil), cp.attrs...), append([]int(nil), cp.counts...), nil
}

// PredictFromMeans applies the compiled per-target regressions to
// per-attribute answer means laid out in Support order. It runs the
// same compiled program as EstimateObject — same term order, same FP
// summation order — so a caller that collects answers under a different
// asking policy (sequential stopping, reliability weighting) produces
// bit-identical estimates whenever it produces identical means. That is
// the determinism contract the adaptive evaluator's pinned fixed-budget
// mode is built on.
func (pl *Plan) PredictFromMeans(means []float64) (map[string]float64, error) {
	cp := pl.compiled()
	if cp.err != nil {
		return nil, cp.err
	}
	if len(means) != len(cp.attrs) {
		return nil, fmt.Errorf("core: got %d means, plan support has %d attributes", len(means), len(cp.attrs))
	}
	ests := make([]float64, len(cp.targets))
	cp.predictInto(means, ests)
	out := make(map[string]float64, len(cp.targets))
	for i, t := range cp.targets {
		out[t] = ests[i]
	}
	return out, nil
}

// questionPool recycles collectMeans' per-object question batches: a
// platform must not retain a batch, so the online hot path reuses them
// instead of allocating one per object.
var questionPool = sync.Pool{New: func() any { return new([]crowd.ObjectValueQuestion) }}

// collectMeans fills means (len == len(cp.attrs)) with the per-attribute
// answer averages for one object, asking the whole question set as one
// exchange.
func (cp *compiledPlan) collectMeans(p crowd.Platform, o *domain.Object, means []float64) error {
	buf := questionPool.Get().(*[]crowd.ObjectValueQuestion)
	defer questionPool.Put(buf)
	qs := (*buf)[:0]
	for _, q := range cp.questions {
		qs = append(qs, crowd.ObjectValueQuestion{Object: o, Attr: q.Attr, N: q.N})
	}
	*buf = qs
	answers, err := p.Values(qs)
	if err != nil {
		return fmt.Errorf("core: online value questions: %w", err)
	}
	if len(answers) != len(qs) {
		return fmt.Errorf("core: value batch returned %d answer sets, want %d", len(answers), len(qs))
	}
	for i, ans := range answers {
		means[i] = stats.Mean(ans.Values)
	}
	return nil
}

// predictInto applies every target's compiled formula to the collected
// means. It is the zero-allocation hot path of the online phase
// (testing.AllocsPerRun pins that); out must have len(cp.targets).
func (cp *compiledPlan) predictInto(means, out []float64) {
	for t := range cp.progs {
		out[t] = cp.progs[t].Predict(means)
	}
}
