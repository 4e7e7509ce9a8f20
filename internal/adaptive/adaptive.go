// Package adaptive makes the online evaluation phase adaptive. The
// fixed-budget evaluator asks exactly b(a) answers per attribute for
// every object; this package layers three composable policies on top:
//
//  1. Sequential stopping — a per-(object, attribute) confidence test
//     on the running mean's standard error (sprt.MeanTest) stops asking
//     about an attribute once its contribution to every target estimate
//     is stable within a tolerance scaled by the regression
//     coefficients and the target's prior spread.
//  2. Reliability weighting — when the platform reports worker
//     identities (crowd.ValueAnswers.Workers), a calibration pass over pilot
//     objects estimates per-worker reliability (quality.EstimateWorkers)
//     and the flat mean o.a^(n) becomes an inverse-variance weighted
//     mean. Platforms that cannot tell who answered degrade to the
//     flat mean.
//  3. Bandit reallocation — questions saved by early stopping fund
//     extension rounds for the attributes whose contribution is still
//     the most uncertain (greedy marginal-gain choice: the attribute
//     with the largest sensitivity-scaled confidence halfwidth — the
//     per-attribute term of the paper's Eq. 2 objective), first within
//     the object and then across objects through a shared savings pool.
//     Total adaptive spend never exceeds the fixed-budget spend: the
//     pool only redistributes money the fixed policy would have spent.
//
// Determinism contract: with stopping disabled (Config.Z = +Inf,
// weighting and reallocation off) the evaluator asks the same questions
// as the fixed path (incrementally — the platform's per-question
// memoization makes the charges identical) and predicts through the
// plan's compiled program (core.Plan.PredictFromMeans), so estimates,
// Spent() and Asked() are bit-equal to core.Plan.EstimateObject. The
// golden tests pin that over the simulator, the fault-injected stack
// and the batched remote platform.
package adaptive

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/quality"
	"repro/internal/sprt"
	"repro/internal/stats"
)

// Config tunes the three adaptive layers. The zero value of a field
// means "default"; use Defaults() for the everything-on configuration
// and Disabled() for the pinned fixed-budget mode.
type Config struct {
	// Z is the confidence multiplier of the stopping rule (default
	// 1.96). math.Inf(1) disables sequential stopping: no attribute ever
	// stabilizes, so every attribute walks to its full b(a).
	Z float64
	// Tol is the stopping tolerance as a fraction of the target's prior
	// σ (default 0.25): attribute a stops once its Z·stderr confidence
	// halfwidth, propagated through every regression coefficient, moves
	// each target estimate by at most Tol·σ_target.
	Tol float64
	// MinAnswers is the floor before any attribute may stop (default 3).
	MinAnswers int
	// Rounds is the number of asking rounds over which an attribute's
	// budget b(a) is spread (default 4, minimum 2): the first round asks
	// MinAnswers, later rounds step up to b(a). More rounds give the
	// stopping rule more exits at the price of more exchanges.
	Rounds int

	// Weight enables reliability-weighted means. It needs a platform
	// that reports worker identities and a Calibrate call; otherwise the
	// evaluator silently keeps the flat mean.
	Weight bool
	// PilotObjects is how many leading objects the calibration pass asks
	// at full budget to estimate worker reliability (default 12).
	PilotObjects int
	// Quality tunes the reliability estimator.
	Quality quality.Options

	// Reallocate enables bandit reallocation of saved questions. It only
	// acts when stopping is active (savings are what fund it).
	Reallocate bool
	// MaxBoost bounds the extension per attribute as a fraction of b(a)
	// (default 1.0: an attribute may at most double its budget).
	MaxBoost float64
	// BoostRounds bounds the extension rounds per object (default 2) —
	// each round buys one chunk for the currently most uncertain
	// attribute, so this is also the extra exchange bound per object.
	BoostRounds int
}

// Defaults returns the everything-on configuration.
func Defaults() Config {
	return Config{
		Z: 1.96, Tol: 0.25, MinAnswers: 3, Rounds: 4,
		Weight: true, PilotObjects: 12,
		Reallocate: true, MaxBoost: 1.0, BoostRounds: 2,
	}
}

// Disabled returns the pinned fixed-budget mode: the adaptive machinery
// runs (incremental rounds, compiled prediction) but stops nothing,
// weights nothing and reallocates nothing — bit-equal to the fixed path.
func Disabled() Config {
	return Config{Z: math.Inf(1)}
}

func (c Config) withDefaults() Config {
	if c.Z == 0 {
		c.Z = 1.96
	}
	if c.Tol == 0 {
		c.Tol = 0.25
	}
	if c.MinAnswers <= 0 {
		c.MinAnswers = 3
	}
	if c.Rounds < 2 {
		c.Rounds = 4
	}
	if c.PilotObjects <= 0 {
		c.PilotObjects = 12
	}
	if c.MaxBoost <= 0 {
		c.MaxBoost = 1.0
	}
	if c.BoostRounds <= 0 {
		c.BoostRounds = 2
	}
	return c
}

// stopping reports whether sequential stopping is structurally active.
func (c Config) stopping() bool { return !math.IsInf(c.Z, 1) }

// Stats are the evaluator's lifetime counters.
type Stats struct {
	// Asked is the total value answers fetched (base + boost).
	Asked int64
	// Saved is how many of the plan's b(a) answers stopping skipped.
	Saved int64
	// Boosted is how many answers beyond b(a) reallocation bought.
	Boosted int64
	// PoolMills is the current undistributed savings pool balance.
	PoolMills crowd.Cost
	// CalibratedWorkers is how many workers the pilot pass scored
	// (0 = flat mean, either by config or missing worker identities).
	CalibratedWorkers int
}

// Evaluator runs the adaptive online phase for one plan over one
// platform. Estimate is safe for concurrent use after Calibrate; the
// reallocation pool is the only shared mutable state (mutex-guarded),
// so adaptive results are deterministic at parallelism 1 and vary only
// in boost placement — never in total spend bound — under concurrency.
type Evaluator struct {
	p    crowd.Platform
	plan *core.Plan
	cfg  Config

	attrs  []string
	counts []int
	prices []crowd.Cost
	// tol is the absolute per-attribute tolerance on the mean's
	// confidence halfwidth, +Inf for attributes no regression uses.
	tol []float64
	// sens is the sensitivity max_t |∂estimate_t/∂mean_a| / σ_t — the
	// score scale of the reallocation bandit.
	sens []float64

	weights map[int]float64 // worker → reliability (nil = flat mean)
	// pilot holds the IDs of objects the calibration pass already asked
	// at full b(a). Their answers are paid for whether or not Estimate
	// consumes them, so stopping early on a pilot object saves no money —
	// Estimate runs them at the full fixed budget and counts no savings.
	pilot map[int]bool

	mu        sync.Mutex
	poolMills crowd.Cost

	asked   atomic.Int64
	saved   atomic.Int64
	boosted atomic.Int64
}

// New builds an evaluator for the plan over the platform.
func New(p crowd.Platform, plan *core.Plan, cfg Config) (*Evaluator, error) {
	if p == nil || plan == nil {
		return nil, errors.New("adaptive: nil platform or plan")
	}
	cfg = cfg.withDefaults()
	attrs, counts, err := plan.Support()
	if err != nil {
		return nil, err
	}
	e := &Evaluator{
		p: p, plan: plan, cfg: cfg,
		attrs: attrs, counts: counts,
		prices: make([]crowd.Cost, len(attrs)),
		tol:    make([]float64, len(attrs)),
		sens:   make([]float64, len(attrs)),
	}
	pricing := p.Pricing()
	for i, a := range attrs {
		if p.IsBinary(a) {
			e.prices[i] = pricing.BinaryValue
		} else {
			e.prices[i] = pricing.NumericValue
		}
		e.sens[i] = e.sensitivity(a)
		if e.sens[i] == 0 {
			e.tol[i] = math.Inf(1) // unused attribute: stop at MinAnswers
		} else {
			e.tol[i] = cfg.Tol / e.sens[i]
		}
	}
	return e, nil
}

// sensitivity returns max over targets of |∂estimate_t/∂mean_a| / σ_t:
// how many target-σ a unit move of attribute a's mean is worth, using
// the platform's prior spread as the linearization point for square
// terms. This is the per-attribute marginal of the paper's Eq. 2
// weighted-error objective, and what converts the relative tolerance
// Tol into an absolute halfwidth budget per attribute.
func (e *Evaluator) sensitivity(attr string) float64 {
	out := 0.0
	for _, t := range e.plan.Targets {
		reg := e.plan.Regressions[t]
		if reg == nil {
			continue
		}
		d := 0.0
		for j, a := range reg.Attributes {
			if a == attr {
				d += math.Abs(reg.Coefficients[j])
			}
		}
		for j, a := range reg.SquareAttributes {
			if a == attr {
				d += 2 * math.Abs(reg.SquareCoefficients[j]) * e.p.Sigma(attr)
			}
		}
		if d == 0 {
			continue
		}
		st := e.p.Sigma(t)
		if !(st > 0) {
			st = 1
		}
		if r := d / st; r > out {
			out = r
		}
	}
	return out
}

// Calibrate runs the reliability pilot over the leading PilotObjects of
// objs (capped at half the set, so stopping keeps room to save): every
// supported attribute is asked at full b(a) with worker
// identities, and quality.EstimateWorkers scores the workers. Pilot
// answers are memoized, so the later Estimate calls on the same objects
// re-use them free of charge — and because that money is already spent,
// Estimate runs pilot objects at the full fixed budget and counts none
// of their answers as savings (stopping early there would fund boosts
// with money the fixed policy never had, breaking the spend bound).
// Calibrate is a no-op when weighting is off; a platform whose worker
// identities come back nil (or a pilot too thin to score anyone)
// degrades to the flat mean rather than failing. Call it before any
// concurrent Estimate calls.
func (e *Evaluator) Calibrate(objs []*domain.Object) error {
	if !e.cfg.Weight || len(objs) == 0 || len(e.attrs) == 0 {
		return nil
	}
	// The pilot never takes more than half the evaluation set: pilot
	// objects are run at the full fixed budget (their answers are
	// pre-paid), so a pilot covering everything would leave stopping no
	// room to save anything. Tiny sets skip calibration entirely.
	n := e.cfg.PilotObjects
	if half := len(objs) / 2; n > half {
		n = half
	}
	if n == 0 {
		return nil
	}
	qs := make([]crowd.ObjectValueQuestion, len(e.attrs))
	for i, a := range e.attrs {
		qs[i] = crowd.ObjectValueQuestion{Attr: a, N: e.counts[i], Workers: true}
	}
	var cells []quality.Cell
	for _, o := range objs[:n] {
		for i := range qs {
			qs[i].Object = o
		}
		answers, err := e.p.Values(qs)
		if err != nil {
			return fmt.Errorf("adaptive: calibration pilot: %w", err)
		}
		// The money for this object's full b(a) is spent now, whether or
		// not the scoring below succeeds: mark it so Estimate never
		// counts its unconsumed answers as savings.
		if e.pilot == nil {
			e.pilot = make(map[int]bool, n)
		}
		e.pilot[o.ID] = true
		for _, ans := range answers {
			if ans.Workers == nil {
				return nil // the platform cannot tell who answered
			}
			if len(ans.Values) >= 2 {
				cells = append(cells, quality.Cell{Values: ans.Values, Workers: ans.Workers})
			}
		}
	}
	if len(cells) == 0 {
		return nil
	}
	ws, err := quality.EstimateWorkers(cells, e.cfg.Quality)
	if err != nil {
		return nil // pilot too thin to score anyone: flat mean
	}
	weights := make(map[int]float64, len(ws))
	for w, s := range ws {
		weights[w] = s.Weight
	}
	e.weights = weights
	return nil
}

// attrState is the per-(object, attribute) asking state of one Estimate.
type attrState struct {
	asked   int
	stable  bool
	values  []float64
	workers []int // parallel to values when worker identities flow
	test    *sprt.MeanTest
}

// Estimate runs the adaptive online phase for one object and returns
// one estimate per target, exactly like core.Plan.EstimateObject.
func (e *Evaluator) Estimate(o *domain.Object) (map[string]float64, error) {
	if o == nil {
		return nil, errors.New("adaptive: nil object")
	}
	k := len(e.attrs)
	st := make([]attrState, k)
	// A pilot object's full b(a) prefix was already paid for during
	// Calibrate, so stopping early on it saves nothing — consume every
	// answer (best accuracy, zero marginal cost) and count no savings.
	stopping := e.cfg.stopping() && !e.pilot[o.ID]
	for i := range st {
		maxObs := e.counts[i]
		if stopping && e.cfg.Reallocate {
			maxObs = e.hardMax(i)
		}
		t, err := sprt.NewMean(sprt.MeanConfig{
			Z: e.cfg.Z, Tol: e.tol[i],
			MinObservations: e.cfg.MinAnswers,
			MaxObservations: maxObs,
		})
		if err != nil {
			return nil, err
		}
		st[i].test = t
	}

	if err := e.basePhase(o, st, stopping); err != nil {
		return nil, err
	}
	if stopping {
		e.reallocate(o, st)
	}

	means := make([]float64, k)
	for i := range st {
		means[i] = e.meanOf(&st[i])
	}
	return e.plan.PredictFromMeans(means)
}

// basePhase spreads each attribute's b(a) over the configured rounds,
// feeding the stopping test after every round. With stopping off every
// attribute simply walks to b(a) — the same questions as the fixed path,
// asked in increments the platform memoization makes charge-identical.
func (e *Evaluator) basePhase(o *domain.Object, st []attrState, stopping bool) error {
	for round := 0; ; round++ {
		var qs []crowd.ObjectValueQuestion
		var idxs []int
		for i := range st {
			if st[i].stable || st[i].asked >= e.counts[i] {
				continue
			}
			to := e.roundTarget(round, st[i].asked, e.counts[i])
			qs = append(qs, crowd.ObjectValueQuestion{Object: o, Attr: e.attrs[i], N: to, Workers: e.weights != nil})
			idxs = append(idxs, i)
		}
		if len(qs) == 0 {
			return nil
		}
		before := 0
		for _, i := range idxs {
			before += st[i].asked
		}
		if err := e.fetch(st, qs, idxs); err != nil {
			return err
		}
		after := 0
		for _, i := range idxs {
			after += st[i].asked
		}
		if after == before && round >= e.cfg.Rounds {
			// A platform returning persistently short batches (a faulty
			// stack without a retry layer) would otherwise loop forever;
			// past the scheduled rounds, a zero-progress round is final
			// and the means are computed from what arrived — the same
			// acceptance of short batches the fixed path has.
			return nil
		}
		if stopping {
			for _, i := range idxs {
				feedTest(&st[i])
			}
		}
	}
}

// roundTarget returns the cumulative answer count attribute i should
// hold after the given round: MinAnswers first, then even steps that
// reach cap by the last configured round.
func (e *Evaluator) roundTarget(round, asked, cap int) int {
	return RoundTarget(round, asked, cap, e.cfg.MinAnswers, e.cfg.Rounds)
}

// RoundTarget is the shared incremental asking schedule: the cumulative
// answer count an attribute should hold after the given round, starting
// at minAnswers and stepping evenly to cap by the last of rounds. Both
// this package's evaluator and the lazy query engine (internal/query)
// pace their fetches with it, so the two adaptive paths ask identical
// answer prefixes round for round — which is what keeps incremental
// asking charge-identical to one fixed call on a memoizing platform.
func RoundTarget(round, asked, cap, minAnswers, rounds int) int {
	first := minAnswers
	if first > cap {
		first = cap
	}
	if round == 0 {
		return first
	}
	if round >= rounds-1 {
		return cap
	}
	step := (cap - first + rounds - 2) / (rounds - 1) // ceil
	if step < 1 {
		step = 1
	}
	to := asked + step
	if to > cap {
		to = cap
	}
	return to
}

// fetch grows each listed attribute's answers to qs[j].N in one
// exchange, with worker identities when weighting is calibrated. The
// platform returns the memoized full prefix, so appending the new suffix
// keeps values[0:n] byte-identical to one fixed-budget question for n
// answers.
func (e *Evaluator) fetch(st []attrState, qs []crowd.ObjectValueQuestion, idxs []int) error {
	answers, err := e.p.Values(qs)
	if err != nil {
		return fmt.Errorf("adaptive: value questions: %w", err)
	}
	if len(answers) != len(qs) {
		return fmt.Errorf("adaptive: value batch returned %d answer sets, want %d", len(answers), len(qs))
	}
	for j, ans := range answers {
		if err := e.grow(&st[idxs[j]], qs[j].Attr, ans); err != nil {
			return err
		}
	}
	return nil
}

// grow appends the unseen suffix of one attribute's cumulative answers
// (and of their workers, when they flow) to its state.
func (e *Evaluator) grow(s *attrState, attr string, ans crowd.ValueAnswers) error {
	if len(ans.Values) < s.asked {
		return fmt.Errorf("adaptive: platform shrank %q answers %d → %d", attr, s.asked, len(ans.Values))
	}
	s.values = append(s.values, ans.Values[s.asked:]...)
	if e.weights != nil && len(ans.Workers) == len(ans.Values) {
		s.workers = append(s.workers, ans.Workers[s.asked:]...)
	}
	e.asked.Add(int64(len(ans.Values) - s.asked))
	s.asked = len(ans.Values)
	return nil
}

// feedTest streams an attribute's unconsumed answers into its stopping
// test and latches stability.
func feedTest(s *attrState) {
	for s.test.Observations() < len(s.values) {
		if d := s.test.Observe(s.values[s.test.Observations()]); d == sprt.AcceptH1 {
			s.stable = true
			return
		} else if d == sprt.RejectH1 {
			return
		}
	}
}

// hardMax is the boost ceiling for attribute i: b(a)·(1+MaxBoost).
func (e *Evaluator) hardMax(i int) int {
	return e.counts[i] + int(e.cfg.MaxBoost*float64(e.counts[i]))
}

// reallocate runs the bandit extension: questions saved by stopped
// attributes fund extra chunks for the attribute with the largest
// sensitivity-scaled confidence halfwidth (the biggest marginal error
// reduction per answer), first from this object's own savings and then
// from the cross-object pool. Unspent savings are deposited for later
// objects. Boost failures from budget exhaustion end the extension
// quietly — the object keeps a valid estimate either way.
func (e *Evaluator) reallocate(o *domain.Object, st []attrState) {
	if !e.cfg.Reallocate {
		for i := range st {
			e.saved.Add(int64(e.counts[i] - st[i].asked))
		}
		return
	}
	var budget crowd.Cost
	for i := range st {
		if gap := e.counts[i] - st[i].asked; gap > 0 {
			budget += crowd.Cost(gap) * e.prices[i]
			e.saved.Add(int64(gap))
		}
	}
	for round := 0; round < e.cfg.BoostRounds; round++ {
		best, bestScore := -1, 0.0
		for i := range st {
			if st[i].stable || st[i].asked < e.counts[i] || st[i].asked >= e.hardMax(i) {
				continue
			}
			if score := st[i].test.StdErr() * e.sens[i]; best < 0 || score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			break
		}
		chunk := (e.counts[best] + e.cfg.Rounds - 1) / e.cfg.Rounds
		if chunk < 1 {
			chunk = 1
		}
		if room := e.hardMax(best) - st[best].asked; chunk > room {
			chunk = room
		}
		cost := crowd.Cost(chunk) * e.prices[best]
		if cost > budget && !e.tryWithdraw(cost-budget) {
			break
		}
		if cost > budget {
			budget = cost
		}
		if err := e.boostFetch(o, &st[best], best, chunk); err != nil {
			break
		}
		budget -= cost
		e.boosted.Add(int64(chunk))
		feedTest(&st[best])
	}
	if budget > 0 {
		e.deposit(budget)
	}
}

// boostFetch grows one attribute by chunk answers.
func (e *Evaluator) boostFetch(o *domain.Object, s *attrState, i, chunk int) error {
	q := crowd.ObjectValueQuestion{Object: o, Attr: e.attrs[i], N: s.asked + chunk, Workers: e.weights != nil}
	answers, err := e.p.Values([]crowd.ObjectValueQuestion{q})
	if err != nil {
		return err
	}
	return e.grow(s, q.Attr, answers[0])
}

// meanOf aggregates one attribute's answers: the reliability-weighted
// mean when worker identities flowed (unknown workers weigh 1), the
// plain mean otherwise — computed by the same stats.Mean the fixed path
// uses, so identical answer prefixes give bit-identical means.
func (e *Evaluator) meanOf(s *attrState) float64 {
	if e.weights == nil || len(s.workers) != len(s.values) || len(s.values) == 0 {
		return stats.Mean(s.values)
	}
	var num, den float64
	for j, v := range s.values {
		w := e.weights[s.workers[j]]
		if w == 0 {
			w = 1
		}
		num += w * v
		den += w
	}
	if den == 0 {
		return stats.Mean(s.values)
	}
	return num / den
}

func (e *Evaluator) deposit(c crowd.Cost) {
	e.mu.Lock()
	e.poolMills += c
	e.mu.Unlock()
}

func (e *Evaluator) tryWithdraw(c crowd.Cost) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.poolMills < c {
		return false
	}
	e.poolMills -= c
	return true
}

// Stats snapshots the evaluator's counters.
func (e *Evaluator) Stats() Stats {
	e.mu.Lock()
	pool := e.poolMills
	e.mu.Unlock()
	return Stats{
		Asked:             e.asked.Load(),
		Saved:             e.saved.Load(),
		Boosted:           e.boosted.Load(),
		PoolMills:         pool,
		CalibratedWorkers: len(e.weights),
	}
}

// EvaluateBatch runs Estimate over many objects with bounded
// concurrency on the shared pool, mirroring core.EvaluateBatch.
func (e *Evaluator) EvaluateBatch(objects []*domain.Object, parallelism int) ([]map[string]float64, error) {
	return core.EvaluateBatchFunc(objects, parallelism, e.Estimate)
}
