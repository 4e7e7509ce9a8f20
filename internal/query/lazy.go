package query

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/domain"
	"repro/internal/sprt"
)

// LazyConfig controls the lazy predicate-ordered evaluator. The eager
// engine pays the plan's full per-object budget before it looks at a
// single WHERE condition; the lazy engine dismantles the statement the
// way the paper dismantles attributes — into per-predicate sub-programs
// (core.TargetProgram) that are paid for one at a time, cheapest
// expected rejection first, so a failed filter never buys the answers
// the other clauses would have needed.
type LazyConfig struct {
	// ShortCircuit stops an object's evaluation at the first failed
	// WHERE predicate, skipping the remaining predicates' and the SELECT
	// list's value questions entirely.
	ShortCircuit bool
	// Reorder evaluates predicates in cheapest-rejection-first order:
	// marginal question cost divided by the running rejection rate
	// (Laplace-smoothed), recomputed as shared dependencies get paid
	// for. Off, predicates run in statement order.
	Reorder bool
	// Z is the confidence multiplier for early predicate decisions and
	// top-k pruning: a predicate settles as soon as the estimate's
	// ±Z·(propagated stderr) interval clears the comparison. math.Inf(1)
	// disables early termination — every touched attribute is paid to
	// its full plan budget, making decisions exact.
	Z float64
	// MinAnswers is the per-attribute floor before any confidence
	// interval is trusted (default 3).
	MinAnswers int
	// Rounds is the number of asking rounds from MinAnswers to the plan
	// budget (default 4), paced by adaptive.RoundTarget.
	Rounds int
	// TopKPrune, for ORDER BY ... LIMIT k statements, drops a surviving
	// object as soon as its sort-key confidence bound proves it cannot
	// displace the current k-th best row.
	TopKPrune bool
	// DropTol truncates each predicate's sub-program to its
	// highest-impact terms (impact = |coefficient|·prior sigma),
	// dropping up to this fraction of the total prior impact; the
	// dropped impact is added to the decision halfwidth as slack. The
	// plan's dense least-squares regressions read every support
	// attribute, so without truncation a lazy predicate pays for the
	// whole budget anyway; with it, a filter like `Dessert > 0.5` pays
	// essentially for the Dessert answers alone. Only active in
	// approximate mode (finite Z) — exact modes keep the full program so
	// decisions stay bit-equal to the eager engine. Zero disables.
	DropTol float64
}

// LazyDefaults is the recommended online configuration: everything on,
// 95% confidence.
func LazyDefaults() *LazyConfig {
	return &LazyConfig{ShortCircuit: true, Reorder: true, Z: 1.96, MinAnswers: 3, Rounds: 4, TopKPrune: true, DropTol: 0.1}
}

// LazyFull is the pinned full-evaluation mode: ordering, short-circuit,
// early termination and pruning all off. Execute in this mode is
// bit-identical (rows, estimates and spend) to the eager engine — the
// determinism anchor the lazy optimizations are verified against.
func LazyFull() *LazyConfig {
	return &LazyConfig{Z: math.Inf(1)}
}

// withDefaults fills the zero values with the schedule defaults the
// adaptive evaluator shares.
func (c LazyConfig) withDefaults() LazyConfig {
	c.Z, c.MinAnswers, c.Rounds = adaptive.Schedule(c.Z, c.MinAnswers, c.Rounds)
	return c
}

// earlyStop reports whether confidence-based early termination is live.
func (c LazyConfig) earlyStop() bool { return !math.IsInf(c.Z, 1) }

// lazyPred is one WHERE condition with its compiled sub-program and its
// running selectivity estimate. prog may be a truncated program; slack
// is the dropped terms' prior impact, added to every decision halfwidth.
type lazyPred struct {
	cond  Condition
	prog  *core.TargetProgram
	deps  []int
	slack float64
	evals int
	fails int
}

// lazyRun is the per-Execute state of the lazy evaluator: it decides
// which support attributes each object's acquisition (adaptive.Answers)
// fetches next, settles the survivors through the session's evaluator,
// and books into the engine's stats.
type lazyRun struct {
	e    *Engine
	st   *Statement
	cfg  LazyConfig
	ev   *adaptive.Evaluator
	sup  *adaptive.Support
	pace adaptive.Pace
	s    *adaptive.Answers // reset for each object

	progs map[string]*core.TargetProgram // canonical attr → sub-program
	preds []*lazyPred

	orderProg *core.TargetProgram
	orderDeps []int
	selDeps   []int // union of SELECT + ORDER BY dependencies

	kept []float64 // top-k keys seen so far, best → worst (see noteKey)
}

// object evaluates one object with per-predicate acquisition and books
// its counters. keep is false for rejected or pruned objects.
func (r *lazyRun) object(o *domain.Object) (ResultRow, bool, error) {
	s := r.s
	s.Reset(o, r.pace)
	row, keep, err := r.evalObject(o, s)
	s.Stats.Objects = 1
	if err == nil {
		// The aborted object's questions were genuinely asked, but its
		// unreached questions were not "skipped" by the optimizer —
		// counting them would let an erroring shard inflate the summed
		// questions_skipped the serving tier reports.
		s.Stats.QuestionsSkipped = s.Skipped()
	}
	r.e.stats.Add(s.Stats)
	if keep {
		r.noteKey(row.Key)
	}
	return row, keep, err
}

func newLazyRun(e *Engine, st *Statement, cfg LazyConfig, sup *adaptive.Support, ev *adaptive.Evaluator) (*lazyRun, error) {
	r := &lazyRun{e: e, st: st, cfg: cfg, ev: ev, sup: sup,
		pace: adaptive.Pace{MinAnswers: cfg.MinAnswers, Rounds: cfg.Rounds}}
	if cfg.earlyStop() {
		// Tol 0: the test accepts only on unanimity (stderr exactly 0) —
		// the one case where more answers cannot move the mean's interval.
		r.pace.Tests = make([]sprt.MeanConfig, len(sup.Attrs))
		for j := range r.pace.Tests {
			r.pace.Tests[j] = sprt.MeanConfig{Z: cfg.Z, MinObservations: cfg.MinAnswers}
		}
	}
	r.s = sup.Object(nil, r.pace)
	canon := e.platform.Canonical
	r.progs = make(map[string]*core.TargetProgram, len(e.plan.Targets))
	for _, t := range e.plan.Targets {
		if r.progs[canon(t)] == nil {
			var err error
			if r.progs[canon(t)], err = e.plan.TargetProgram(t); err != nil {
				return nil, err
			}
		}
	}
	for _, a := range st.Attributes() {
		if r.progs[canon(a)] == nil {
			return nil, fmt.Errorf("query: plan does not cover attribute %q", a)
		}
	}
	for _, c := range st.Where {
		tp := r.progs[canon(c.Attr)]
		pred := &lazyPred{cond: c, prog: tp, deps: tp.Deps()}
		if cfg.earlyStop() && cfg.DropTol > 0 {
			scale := func(j int) float64 {
				if s := e.platform.Sigma(sup.Attrs[j]); s > 0 {
					return s
				}
				return 1
			}
			pred.prog, pred.slack = tp.Truncate(scale, 1-cfg.DropTol)
			pred.deps = pred.prog.Deps()
		}
		r.preds = append(r.preds, pred)
	}
	sel := make([]bool, len(sup.Attrs))
	for _, a := range st.Select {
		for _, j := range r.progs[canon(a)].Deps() {
			sel[j] = true
		}
	}
	if st.Order != nil {
		r.orderProg = r.progs[canon(st.Order.Attr)]
		r.orderDeps = r.orderProg.Deps()
		for _, j := range r.orderDeps {
			sel[j] = true
		}
	}
	for j, in := range sel {
		if in {
			r.selDeps = append(r.selDeps, j)
		}
	}
	return r, nil
}

// evalObject runs one object through the predicate chain, the top-k
// prune and the settling of its SELECT dependencies. keep is false for
// rejected or pruned objects.
func (r *lazyRun) evalObject(o *domain.Object, s *adaptive.Answers) (ResultRow, bool, error) {
	remaining := make([]int, len(r.preds))
	for i := range r.preds {
		remaining[i] = i
	}
	failed := false
	for len(remaining) > 0 {
		pi := 0
		if r.cfg.Reorder {
			pi = r.cheapestRejection(s, remaining)
		}
		p := r.preds[remaining[pi]]
		remaining = append(remaining[:pi], remaining[pi+1:]...)
		holds, err := r.evalPred(s, p)
		if err != nil {
			return ResultRow{}, false, err
		}
		p.evals++
		if holds {
			continue
		}
		p.fails++
		failed = true
		if r.cfg.ShortCircuit {
			r.e.stats.ObjectsShortCircuited++
			return ResultRow{}, false, nil
		}
	}
	if failed {
		return ResultRow{}, false, nil
	}
	if r.orderProg != nil && r.cfg.TopKPrune && r.st.Limit > 0 && len(r.kept) == r.st.Limit {
		pruned, err := r.pruneByOrderKey(s)
		if err != nil {
			return ResultRow{}, false, err
		}
		if pruned {
			r.e.stats.ObjectsPruned++
			return ResultRow{}, false, nil
		}
	}
	if err := r.ev.Settle(s, r.selDeps); err != nil {
		return ResultRow{}, false, err
	}
	canon := r.e.platform.Canonical
	vals := make(map[string]float64, len(r.st.Select))
	for _, a := range r.st.Select {
		vals[a] = r.progs[canon(a)].Predict(s.Means)
	}
	row := ResultRow{Object: o, Values: vals}
	if r.orderProg != nil {
		row.Key = r.orderProg.Predict(s.Means)
	}
	return row, true, nil
}

// cheapestRejection picks the remaining predicate minimizing marginal
// question cost per expected rejection — the classic selective-filter
// ordering, with a Laplace-smoothed rejection rate so a cold predicate
// is neither trusted nor starved. Ties break toward statement order.
func (r *lazyRun) cheapestRejection(s *adaptive.Answers, remaining []int) int {
	best, bestScore := 0, math.Inf(1)
	for k, idx := range remaining {
		p := r.preds[idx]
		cost := 0.0
		for _, j := range p.deps {
			if s.Done(j) {
				continue
			}
			cost += float64(r.sup.Counts[j]-s.Asked(j)) * float64(r.sup.Prices[j])
		}
		reject := float64(p.fails+1) / float64(p.evals+2)
		if score := cost / reject; score < bestScore {
			best, bestScore = k, score
		}
	}
	return best
}

// fetch advances deps one asking round when decisions may stop early,
// and to their full budget otherwise. It reports whether another round
// may bring more answers.
func (r *lazyRun) fetch(s *adaptive.Answers, deps []int) (bool, error) {
	if r.cfg.earlyStop() {
		return s.Round(deps)
	}
	return false, s.Full(deps)
}

// evalPred decides one condition, asking until the confidence interval
// clears the comparison or the dependencies are exhausted.
func (r *lazyRun) evalPred(s *adaptive.Answers, p *lazyPred) (bool, error) {
	for {
		progress, err := r.fetch(s, p.deps)
		if err != nil {
			return false, err
		}
		est := p.prog.Predict(s.Means)
		if r.canDecide(s, p.deps) {
			bound := p.prog.Bound(s.Means, s.HW)
			hw := bound + p.slack
			if holds, decided := decideInterval(p.cond, est-hw, est+hw); decided {
				if bound > 0 {
					r.e.stats.PredicatesEarly++
				}
				return holds, nil
			}
		}
		if !progress {
			// Dependencies exhausted: halfwidths are all zero, so the
			// interval is a point and decideInterval must have decided.
			// Guard anyway with the exact comparison.
			return p.cond.Holds(est), nil
		}
	}
}

// pruneByOrderKey reports whether the object's sort key provably cannot
// displace the current k-th best row. Ties lose to earlier rows (the
// unsharded engine's stable sort), so a bound exactly on the threshold
// prunes.
func (r *lazyRun) pruneByOrderKey(s *adaptive.Answers) (bool, error) {
	threshold := r.kept[len(r.kept)-1]
	for {
		progress, err := r.fetch(s, r.orderDeps)
		if err != nil {
			return false, err
		}
		if r.canDecide(s, r.orderDeps) {
			est := r.orderProg.Predict(s.Means)
			if r.st.Order.Desc {
				est = -est // kept keys are negated for DESC
			}
			hw := r.orderProg.Bound(s.Means, s.HW)
			if est-hw >= threshold {
				return true, nil
			}
			if est+hw < threshold {
				return false, nil
			}
		}
		if !progress {
			return false, nil
		}
	}
}

// noteKey records a surviving row's sort key among the running top k,
// kept ascending in the statement's order (keys negated for DESC).
func (r *lazyRun) noteKey(key float64) {
	if r.st.Order == nil || r.st.Limit <= 0 {
		return
	}
	if r.st.Order.Desc {
		key = -key
	}
	r.kept = slices.Insert(r.kept, sort.SearchFloat64s(r.kept, key), key)
	if len(r.kept) > r.st.Limit {
		r.kept = r.kept[:r.st.Limit]
	}
}

// canDecide reports whether every dependency has enough answers for its
// halfwidth to be meaningful (full budget, settled, or ≥ 2 answers).
func (r *lazyRun) canDecide(s *adaptive.Answers, deps []int) bool {
	for _, j := range deps {
		if !s.Done(j) && s.Asked(j) < 2 {
			return false
		}
	}
	return true
}

// decideInterval resolves a condition against the estimate interval
// [lo, hi]: decided is true when every point of the interval agrees. The
// ordering operators are monotone in the estimate, so the endpoints
// decide; for the tolerance-band operators (=, !=) the band around the
// constant is an interval, so containment checks at the endpoints and
// the nearest point suffice.
func decideInterval(c Condition, lo, hi float64) (holds, decided bool) {
	if c.Op != Eq && c.Op != Ne {
		holds = c.Holds(lo)
		return holds, holds == c.Holds(hi)
	}
	if approxEqual(lo, c.Value) && approxEqual(hi, c.Value) {
		return c.Op == Eq, true
	}
	if !approxEqual(math.Max(lo, math.Min(c.Value, hi)), c.Value) {
		return c.Op == Ne, true
	}
	return false, false
}
