package query

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/sprt"
	"repro/internal/stats"
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

// withDefaults fills the zero values.
func (c LazyConfig) withDefaults() LazyConfig {
	if c.Z == 0 {
		c.Z = 1.96
	}
	if c.MinAnswers < 2 {
		c.MinAnswers = 3
	}
	if c.Rounds < 2 {
		c.Rounds = 4
	}
	return c
}

// earlyStop reports whether confidence-based early termination is live.
func (c LazyConfig) earlyStop() bool { return !math.IsInf(c.Z, 1) }

// LazyStats are the counters of one lazy Execute.
type LazyStats struct {
	// Objects is the number of objects evaluated.
	Objects int64
	// ObjectsShortCircuited is how many were rejected before every
	// predicate was paid for.
	ObjectsShortCircuited int64
	// ObjectsPruned is how many WHERE survivors were dropped by the
	// top-k confidence bound.
	ObjectsPruned int64
	// PredicatesEarly is how many predicate decisions settled before
	// their attributes' full budget.
	PredicatesEarly int64
	// QuestionsAsked / QuestionsSkipped partition the plan's total
	// question budget over the evaluated objects.
	QuestionsAsked   int64
	QuestionsSkipped int64
}

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

// lazyRun is the per-Execute state of the lazy evaluator.
type lazyRun struct {
	e   *Engine
	st  *Statement
	cfg LazyConfig

	attrs  []string
	counts []int
	price  []crowd.Cost
	progs  map[string]*core.TargetProgram // canonical attr → sub-program
	preds  []*lazyPred

	orderProg *core.TargetProgram
	orderDeps []int
	selDeps   []int // union of SELECT + ORDER BY dependencies

	kept   []float64 // top-k keys seen so far, best → worst
	stats  LazyStats
	rstats ReuseStats
}

// objState is one object's asking state, indexed in plan Support order.
type objState struct {
	o       *domain.Object
	values  [][]float64
	asked   []int
	means   []float64
	hw      []float64
	round   []int
	fetched []bool // full plan budget asked
	settled []bool // unanimity latch: mean cannot move, stop early
	tests   []*sprt.MeanTest
}

// executeLazy is the lazy counterpart of Execute.
func (e *Engine) executeLazy(st *Statement, objects []*domain.Object) ([]ResultRow, error) {
	cfg := e.lazy.withDefaults()
	if !(cfg.Z > 0) { // rejects NaN and negatives; +Inf allowed
		return nil, fmt.Errorf("query: lazy Z must be > 0, got %v", cfg.Z)
	}
	e.lstats = LazyStats{}
	if !cfg.ShortCircuit && !cfg.earlyStop() {
		return e.executeLazyFull(st, objects)
	}
	r, err := newLazyRun(e, st, cfg)
	if err != nil {
		return nil, err
	}
	var rows []ResultRow
	for _, o := range objects {
		s := r.newObjState(o)
		row, keep, err := r.evalObject(s)
		r.stats.Objects++
		for j := range r.attrs {
			r.stats.QuestionsAsked += int64(s.asked[j])
		}
		if err != nil {
			// The aborted object's questions were genuinely asked, but its
			// unreached questions were not "skipped" by the optimizer —
			// counting them would let an erroring shard inflate the summed
			// questions_skipped the serving tier reports.
			e.lstats = r.stats
			e.rstats = r.rstats
			return nil, err
		}
		for j := range r.attrs {
			r.stats.QuestionsSkipped += int64(r.counts[j] - s.asked[j])
		}
		if !keep {
			continue
		}
		rows = append(rows, row)
		r.noteKey(row.Key)
	}
	e.lstats = r.stats
	e.rstats = r.rstats
	return orderRows(st, rows), nil
}

// executeLazyFull is the pinned full-evaluation mode: it runs the plan's
// batched per-object estimator — literally the eager engine's code path —
// so rows, estimates and spend stay bit-identical to Execute without a
// lazy config. Only the counters differ from a no-op.
func (e *Engine) executeLazyFull(st *Statement, objects []*domain.Object) ([]ResultRow, error) {
	_, counts, err := e.plan.Support()
	if err != nil {
		return nil, err
	}
	perObject := int64(0)
	for _, n := range counts {
		perObject += int64(n)
	}
	estimate := func(o *domain.Object) (map[string]float64, error) {
		return e.plan.EstimateObject(e.platform, o)
	}
	var rr *reuseRun
	if e.memo != nil {
		if rr, err = newReuseRun(e); err != nil {
			return nil, err
		}
		estimate = rr.estimate
	}
	var rows []ResultRow
	for _, o := range objects {
		est, err := estimate(o)
		if err != nil {
			return nil, err
		}
		e.lstats.Objects++
		e.lstats.QuestionsAsked += perObject
		if row, keep := e.buildRow(st, o, est); keep {
			rows = append(rows, row)
		}
	}
	if rr != nil {
		// Memo hits were never asked: move them from asked to skipped so
		// the counters keep partitioning objects × budget.
		e.rstats = rr.stats
		e.lstats.QuestionsAsked -= rr.stats.AnswersReused
		e.lstats.QuestionsSkipped += rr.stats.AnswersReused
	}
	return orderRows(st, rows), nil
}

func newLazyRun(e *Engine, st *Statement, cfg LazyConfig) (*lazyRun, error) {
	attrs, counts, err := e.plan.Support()
	if err != nil {
		return nil, err
	}
	r := &lazyRun{e: e, st: st, cfg: cfg, attrs: attrs, counts: counts}
	pricing := e.platform.Pricing()
	r.price = make([]crowd.Cost, len(attrs))
	for i, a := range attrs {
		if e.platform.IsBinary(a) {
			r.price[i] = pricing.BinaryValue
		} else {
			r.price[i] = pricing.NumericValue
		}
	}
	canon := e.platform.Canonical
	r.progs = make(map[string]*core.TargetProgram)
	for _, a := range st.Attributes() {
		want := canon(a)
		if _, ok := r.progs[want]; ok {
			continue
		}
		var tp *core.TargetProgram
		for _, t := range e.plan.Targets {
			if canon(t) == want {
				tp, err = e.plan.TargetProgram(t)
				if err != nil {
					return nil, err
				}
				break
			}
		}
		if tp == nil {
			return nil, fmt.Errorf("query: plan does not cover attribute %q", a)
		}
		r.progs[want] = tp
	}
	for _, c := range st.Where {
		tp := r.progs[canon(c.Attr)]
		pred := &lazyPred{cond: c, prog: tp, deps: tp.Deps()}
		if cfg.earlyStop() && cfg.DropTol > 0 {
			scale := func(j int) float64 {
				if s := e.platform.Sigma(attrs[j]); s > 0 {
					return s
				}
				return 1
			}
			pred.prog, pred.slack = tp.Truncate(scale, 1-cfg.DropTol)
			pred.deps = pred.prog.Deps()
		}
		r.preds = append(r.preds, pred)
	}
	sel := make(map[int]bool)
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
	r.selDeps = make([]int, 0, len(sel))
	for j := range sel {
		r.selDeps = append(r.selDeps, j)
	}
	sort.Ints(r.selDeps)
	return r, nil
}

func (r *lazyRun) newObjState(o *domain.Object) *objState {
	n := len(r.attrs)
	return &objState{
		o:       o,
		values:  make([][]float64, n),
		asked:   make([]int, n),
		means:   make([]float64, n),
		hw:      make([]float64, n),
		round:   make([]int, n),
		fetched: make([]bool, n),
		settled: make([]bool, n),
		tests:   make([]*sprt.MeanTest, n),
	}
}

// evalObject runs one object through the predicate chain, the top-k
// prune and the SELECT fetch. keep is false for rejected or pruned
// objects.
func (r *lazyRun) evalObject(s *objState) (ResultRow, bool, error) {
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
			r.stats.ObjectsShortCircuited++
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
			r.stats.ObjectsPruned++
			return ResultRow{}, false, nil
		}
	}
	if err := r.fetchFull(s, r.selDeps); err != nil {
		return ResultRow{}, false, err
	}
	canon := r.e.platform.Canonical
	vals := make(map[string]float64, len(r.st.Select))
	for _, a := range r.st.Select {
		vals[a] = r.progs[canon(a)].Predict(s.means)
	}
	row := ResultRow{Object: s.o, Values: vals}
	if r.orderProg != nil {
		row.Key = r.orderProg.Predict(s.means)
	}
	return row, true, nil
}

// cheapestRejection picks the remaining predicate minimizing marginal
// question cost per expected rejection — the classic selective-filter
// ordering, with a Laplace-smoothed rejection rate so a cold predicate
// is neither trusted nor starved. Ties break toward statement order.
func (r *lazyRun) cheapestRejection(s *objState, remaining []int) int {
	best, bestScore := 0, math.Inf(1)
	for k, idx := range remaining {
		p := r.preds[idx]
		cost := 0.0
		for _, j := range p.deps {
			if s.fetched[j] || s.settled[j] {
				continue
			}
			cost += float64(r.counts[j]-s.asked[j]) * float64(r.price[j])
		}
		reject := float64(p.fails+1) / float64(p.evals+2)
		if score := cost / reject; score < bestScore {
			best, bestScore = k, score
		}
	}
	return best
}

// evalPred decides one condition, asking in rounds until the confidence
// interval clears the comparison or the dependencies are exhausted.
func (r *lazyRun) evalPred(s *objState, p *lazyPred) (bool, error) {
	if !r.cfg.earlyStop() {
		if err := r.fetchFull(s, p.deps); err != nil {
			return false, err
		}
		return p.cond.Holds(p.prog.Predict(s.means)), nil
	}
	for {
		progress, err := r.fetchRound(s, p.deps)
		if err != nil {
			return false, err
		}
		if r.canDecide(s, p.deps) {
			est := p.prog.Predict(s.means)
			bound := p.prog.Bound(s.means, s.hw)
			hw := bound + p.slack
			if holds, decided := decideInterval(p.cond, est-hw, est+hw); decided {
				if bound > 0 {
					r.stats.PredicatesEarly++
				}
				return holds, nil
			}
		}
		if !progress {
			// Dependencies exhausted: halfwidths are all zero, so the
			// interval is a point and decideInterval must have decided.
			// Guard anyway with the exact comparison.
			return p.cond.Holds(p.prog.Predict(s.means)), nil
		}
	}
}

// pruneByOrderKey reports whether the object's sort key provably cannot
// displace the current k-th best row. Ties lose to earlier rows (the
// unsharded engine's stable sort), so a bound exactly on the threshold
// prunes.
func (r *lazyRun) pruneByOrderKey(s *objState) (bool, error) {
	threshold := r.kept[len(r.kept)-1]
	for {
		var progress bool
		var err error
		if r.cfg.earlyStop() {
			progress, err = r.fetchRound(s, r.orderDeps)
		} else {
			err = r.fetchFull(s, r.orderDeps)
		}
		if err != nil {
			return false, err
		}
		if r.canDecide(s, r.orderDeps) {
			est := r.orderProg.Predict(s.means)
			hw := r.orderProg.Bound(s.means, s.hw)
			if r.st.Order.Desc {
				if est+hw <= threshold {
					return true, nil
				}
				if est-hw > threshold {
					return false, nil
				}
			} else {
				if est-hw >= threshold {
					return true, nil
				}
				if est+hw < threshold {
					return false, nil
				}
			}
		}
		if !progress {
			return false, nil
		}
	}
}

// noteKey records a surviving row's sort key in the running top-k list.
func (r *lazyRun) noteKey(key float64) {
	if r.st.Order == nil || r.st.Limit <= 0 {
		return
	}
	desc := r.st.Order.Desc
	full := len(r.kept) == r.st.Limit
	if full {
		worst := r.kept[len(r.kept)-1]
		// Equal keys lose the evaluation-order tie-break.
		if (desc && key <= worst) || (!desc && key >= worst) {
			return
		}
	}
	// Insert after any equal keys (earlier rows rank ahead).
	pos := sort.Search(len(r.kept), func(i int) bool {
		if desc {
			return r.kept[i] < key
		}
		return r.kept[i] > key
	})
	r.kept = append(r.kept, 0)
	copy(r.kept[pos+1:], r.kept[pos:])
	r.kept[pos] = key
	if len(r.kept) > r.st.Limit {
		r.kept = r.kept[:r.st.Limit]
	}
}

// canDecide reports whether every dependency has enough answers for its
// halfwidth to be meaningful (full budget, settled, or ≥ 2 answers).
func (r *lazyRun) canDecide(s *objState, deps []int) bool {
	for _, j := range deps {
		if !s.fetched[j] && !s.settled[j] && s.asked[j] < 2 {
			return false
		}
	}
	return true
}

// peekMemo probes the engine's answer memo for attribute j's
// fully-budgeted mean before any purchase is priced. A hit installs the
// exact full-budget mean (halfwidth 0, attribute fetched) — strictly
// better information than any partial prefix — and books the answers the
// object no longer has to buy.
func (r *lazyRun) peekMemo(s *objState, j int) bool {
	if r.e.memo == nil || s.asked[j] >= r.counts[j] {
		return false
	}
	v, ok := r.e.memo.Peek(ReuseQuestion{ObjectID: s.o.ID, Attr: r.attrs[j], N: r.counts[j]})
	if !ok {
		return false
	}
	saved := int64(r.counts[j] - s.asked[j])
	r.rstats.AnswersReused += saved
	r.rstats.SpendSavedMills += saved * int64(r.price[j])
	s.means[j] = v
	s.fetched[j] = true
	s.hw[j] = 0
	return true
}

// fetchRound advances every unfinished dependency one asking round
// (adaptive.RoundTarget pacing) and reports whether anything was asked.
func (r *lazyRun) fetchRound(s *objState, deps []int) (bool, error) {
	var qs []crowd.ObjectValueQuestion
	var idxs []int
	for _, j := range deps {
		if s.fetched[j] || s.settled[j] || r.peekMemo(s, j) {
			continue
		}
		to := adaptive.RoundTarget(s.round[j], s.asked[j], r.counts[j], r.cfg.MinAnswers, r.cfg.Rounds)
		s.round[j]++
		if to <= s.asked[j] {
			continue
		}
		qs = append(qs, crowd.ObjectValueQuestion{Object: s.o, Attr: r.attrs[j], N: to})
		idxs = append(idxs, j)
	}
	if len(qs) == 0 {
		return false, nil
	}
	answers, err := r.values(qs)
	if err != nil {
		return false, err
	}
	for k, j := range idxs {
		r.ingest(s, j, answers[k].Values)
	}
	return true, nil
}

// fetchFull pays every listed dependency to its plan budget (settled
// attributes stay at their early-stopped mean — that is the approximation
// a finite Z buys).
func (r *lazyRun) fetchFull(s *objState, deps []int) error {
	var qs []crowd.ObjectValueQuestion
	var idxs []int
	for _, j := range deps {
		if s.fetched[j] || s.settled[j] || r.peekMemo(s, j) {
			continue
		}
		qs = append(qs, crowd.ObjectValueQuestion{Object: s.o, Attr: r.attrs[j], N: r.counts[j]})
		idxs = append(idxs, j)
	}
	if len(qs) == 0 {
		return nil
	}
	answers, err := r.values(qs)
	if err != nil {
		return err
	}
	for k, j := range idxs {
		r.ingest(s, j, answers[k].Values)
	}
	return nil
}

// values answers the questions in one exchange, exactly like the
// compiled plan's collectMeans.
func (r *lazyRun) values(qs []crowd.ObjectValueQuestion) ([]crowd.ValueAnswers, error) {
	answers, err := r.e.platform.Values(qs)
	if err != nil {
		return nil, fmt.Errorf("query: lazy value questions: %w", err)
	}
	if len(answers) != len(qs) {
		return nil, fmt.Errorf("query: value batch returned %d answer sets, want %d", len(answers), len(qs))
	}
	return answers, nil
}

// ingest folds one attribute's (cumulative) answer slice into the object
// state: running mean via stats.Mean over the full prefix — the same
// summation the eager path uses, so a fully fetched attribute's mean is
// bit-identical to collectMeans — plus the unanimity/confidence
// bookkeeping.
func (r *lazyRun) ingest(s *objState, j int, ans []float64) {
	fresh := ans[s.asked[j]:]
	s.values[j] = append(s.values[j], fresh...)
	s.asked[j] = len(s.values[j])
	s.means[j] = stats.Mean(s.values[j])
	if s.asked[j] >= r.counts[j] {
		s.fetched[j] = true
		s.hw[j] = 0
		if r.e.memo != nil {
			r.e.memo.Publish(ReuseQuestion{ObjectID: s.o.ID, Attr: r.attrs[j], N: r.counts[j]}, s.means[j])
		}
		return
	}
	if !r.cfg.earlyStop() {
		return
	}
	if s.tests[j] == nil {
		// Tol 0: the test accepts only on unanimity (stderr exactly 0) —
		// the one case where more answers cannot move the mean's interval.
		t, err := sprt.NewMean(sprt.MeanConfig{Z: r.cfg.Z, MinObservations: r.cfg.MinAnswers})
		if err != nil {
			// cfg.Z was validated by executeLazy; unreachable.
			panic(err)
		}
		s.tests[j] = t
	}
	for _, v := range fresh {
		s.tests[j].Observe(v)
	}
	if s.tests[j].Stable() {
		s.settled[j] = true
		s.hw[j] = 0
		return
	}
	s.hw[j] = r.cfg.Z * s.tests[j].StdErr()
}

// decideInterval resolves a condition against the estimate interval
// [lo, hi]: decided is true when every point of the interval agrees. For
// the tolerance-band operators (=, !=) the band around the constant is
// an interval, so containment checks at the endpoints and the nearest
// point suffice.
func decideInterval(c Condition, lo, hi float64) (holds, decided bool) {
	switch c.Op {
	case Lt:
		if hi < c.Value {
			return true, true
		}
		if lo >= c.Value {
			return false, true
		}
	case Le:
		if hi <= c.Value {
			return true, true
		}
		if lo > c.Value {
			return false, true
		}
	case Gt:
		if lo > c.Value {
			return true, true
		}
		if hi <= c.Value {
			return false, true
		}
	case Ge:
		if lo >= c.Value {
			return true, true
		}
		if hi < c.Value {
			return false, true
		}
	case Eq:
		if approxEqual(lo, c.Value) && approxEqual(hi, c.Value) {
			return true, true
		}
		if !approxEqual(math.Max(lo, math.Min(c.Value, hi)), c.Value) {
			return false, true
		}
	case Ne:
		if approxEqual(lo, c.Value) && approxEqual(hi, c.Value) {
			return false, true
		}
		if !approxEqual(math.Max(lo, math.Min(c.Value, hi)), c.Value) {
			return true, true
		}
	}
	return false, false
}
