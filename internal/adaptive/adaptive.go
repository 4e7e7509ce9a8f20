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
// Determinism contract: with stopping disabled (Config.Z = +Inf) and
// no reliability weights the evaluator takes the fixed path itself —
// core.Plan.EstimateObject, one exchange per object — so estimates,
// Spent() and the questions asked are bit-equal to the fixed-budget
// evaluator by construction. The golden tests pin that over the
// simulator, the fault-injected stack and the batched remote platform.
//
// Answers are bought through the package's one acquisition loop
// (acquire.go), which the lazy query engine shares: the Evaluator only
// decides which attributes to fetch next and when they are stable.
package adaptive

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/quality"
	"repro/internal/sprt"
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

// Disabled returns the pinned fixed-budget mode: nothing stops, nothing
// is weighted and nothing is reallocated, so Estimate takes the fixed
// path (core.Plan.EstimateObject) itself.
func Disabled() Config {
	return Config{Z: math.Inf(1)}
}

func (c Config) withDefaults() Config {
	c.Z, c.MinAnswers, c.Rounds = Schedule(c.Z, c.MinAnswers, c.Rounds)
	if c.Tol == 0 {
		c.Tol = 0.25
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

// Evaluator runs the online phase for one plan over one Support.
// Estimate is safe for concurrent use after Calibrate; the reallocation
// pool and the counters are the only shared mutable state
// (mutex-guarded; acquisition states are recycled through a sync.Pool),
// so adaptive results are deterministic at parallelism 1 and vary only
// in boost placement — never in total spend bound — under concurrency.
type Evaluator struct {
	sup *Support
	cfg Config

	// sens is the sensitivity max_t |∂estimate_t/∂mean_a| / σ_t — the
	// score scale of the reallocation bandit.
	sens []float64
	// stop paces objects under sequential stopping: each attribute's test
	// accepts once its confidence halfwidth is within Tol/sensitivity
	// (+Inf for attributes no regression uses) and is capped at b(a), or
	// at the boost ceiling when reallocating. walk paces the rest, which
	// stop at b(a). sens and stop are built only when stopping is on.
	stop, walk Pace

	weights map[int]float64 // worker → reliability (nil = flat mean)
	// pilot holds, per object the calibration pass asked at full b(a),
	// how many answers of each attribute it bought. Those answers are
	// paid for whether or not Estimate consumes them, so stopping early
	// on a pilot object saves no money — Estimate runs them at the full
	// fixed budget and counts no savings, and reading them back through
	// the memo books them as asked, not reused.
	pilot map[int][]int

	// states recycles Estimate's acquisition states across objects.
	states sync.Pool

	mu        sync.Mutex
	poolMills crowd.Cost
	stats     Stats
}

// New builds an evaluator for the plan over the platform, without an
// answer memo.
func New(p crowd.Platform, plan *core.Plan, cfg Config) (*Evaluator, error) {
	if p == nil || plan == nil {
		return nil, errors.New("adaptive: nil platform or plan")
	}
	sup, err := NewSupport(p, plan, nil)
	if err != nil {
		return nil, err
	}
	return sup.Evaluator(cfg), nil
}

// Evaluator builds an evaluator over the support. Disabled() gives the
// fixed-budget evaluator, which reads through the support's memo when
// it has one; the sensitivities and stopping tests are computed only
// when stopping is on, so it stays cheap to build per session.
func (sup *Support) Evaluator(cfg Config) *Evaluator {
	cfg = cfg.withDefaults()
	e := &Evaluator{sup: sup, cfg: cfg, walk: Pace{MinAnswers: cfg.MinAnswers, Rounds: cfg.Rounds}}
	if !cfg.stopping() {
		return e
	}
	k := len(sup.Attrs)
	e.sens = make([]float64, k)
	e.stop = Pace{MinAnswers: cfg.MinAnswers, Rounds: cfg.Rounds, Tests: make([]sprt.MeanConfig, k)}
	for i, a := range sup.Attrs {
		e.sens[i] = e.sensitivity(a)
		tol := math.Inf(1) // unused attribute: stop at MinAnswers
		if e.sens[i] != 0 {
			tol = cfg.Tol / e.sens[i]
		}
		maxObs := sup.Counts[i]
		if cfg.Reallocate {
			maxObs = e.hardMax(i)
		}
		e.stop.Tests[i] = sprt.MeanConfig{Z: cfg.Z, Tol: tol, MinObservations: cfg.MinAnswers, MaxObservations: maxObs}
	}
	return e
}

// sensitivity returns max over targets of |∂estimate_t/∂mean_a| / σ_t:
// how many target-σ a unit move of attribute a's mean is worth, using
// the platform's prior spread as the linearization point for square
// terms. This is the per-attribute marginal of the paper's Eq. 2
// weighted-error objective, and what converts the relative tolerance
// Tol into an absolute halfwidth budget per attribute.
func (e *Evaluator) sensitivity(attr string) float64 {
	out := 0.0
	plan := e.sup.plan
	for _, t := range plan.Targets {
		reg := plan.Regressions[t]
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
				d += 2 * math.Abs(reg.SquareCoefficients[j]) * e.sup.Platform.Sigma(attr)
			}
		}
		if d == 0 {
			continue
		}
		st := e.sup.Platform.Sigma(t)
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
	if !e.cfg.Weight || len(objs) == 0 || len(e.sup.Attrs) == 0 {
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
	var cells []quality.Cell
	for _, o := range objs[:n] {
		s := e.sup.Object(o, Pace{Workers: true})
		if err := s.Full(e.sup.All); err != nil {
			return fmt.Errorf("adaptive: calibration pilot: %w", err)
		}
		// The money for this object's full b(a) is spent now, whether or
		// not the scoring below succeeds: record what it bought so
		// Estimate never counts its unconsumed answers as savings.
		if e.pilot == nil {
			e.pilot = make(map[int][]int, n)
		}
		paid := make([]int, len(s.attrs))
		for j := range s.attrs {
			paid[j] = s.attrs[j].bought
		}
		e.pilot[o.ID] = paid
		for _, a := range s.attrs {
			if len(a.workers) != len(a.values) {
				return nil // the platform cannot tell who answered
			}
			if len(a.values) >= 2 {
				cells = append(cells, quality.Cell{Values: a.values, Workers: a.workers})
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
	e.walk.Workers, e.stop.Workers = true, true
	return nil
}

// Estimate runs the online phase for one object and returns one
// estimate per target, exactly like core.Plan.EstimateObject: every
// support attribute walks round by round until its stopping test is
// stable or it reaches b(a), then reallocation spends the savings. With
// nothing stopping and nothing weighted it takes the fixed path — one
// Resolve through the memo, or core.Plan.EstimateObject without one.
func (e *Evaluator) Estimate(o *domain.Object) (map[string]float64, error) {
	if o == nil {
		return nil, errors.New("adaptive: nil object")
	}
	// A pilot object's full b(a) prefix was already paid for during
	// Calibrate, so stopping early on it saves nothing — consume every
	// answer (best accuracy, zero marginal cost) and count no savings.
	paid, pilot := e.pilot[o.ID]
	stopping := e.cfg.stopping() && !pilot
	plan := e.sup.plan
	if !stopping && e.weights == nil && e.sup.Memo == nil {
		est, err := plan.EstimateObject(e.sup.Platform, o)
		if err == nil {
			e.book(Stats{Objects: 1, QuestionsAsked: plan.PerObjectAnswers()})
		}
		return est, err
	}
	pace := e.walk
	if stopping {
		pace = e.stop
	}
	s, _ := e.states.Get().(*Answers)
	if s == nil {
		s = e.sup.Object(o, pace)
	} else {
		s.Reset(o, pace)
	}
	defer e.states.Put(s)
	if err := e.settle(s, e.sup.All, stopping); err != nil {
		e.book(s.Stats)
		return nil, err
	}
	if pilot {
		s.own(paid)
	}
	s.Stats.Objects, s.Stats.QuestionsSkipped = 1, s.Skipped()
	e.book(s.Stats)
	if e.weights != nil {
		for i := range s.attrs {
			s.Means[i] = e.weightedMean(&s.attrs[i], s.Means[i])
		}
	}
	return plan.PredictFromMeans(s.Means)
}

// Settle takes the listed attributes of an object acquired under
// another Pace — the lazy engine's survivors' SELECT dependencies — to
// the evaluator's policy: to b(a) in one exchange when nothing stops,
// and otherwise round by round under the stopping tests, with
// reallocation drawing on and boosting only these attributes. The
// evaluator's counters are not booked; the caller books s.Stats.
func (e *Evaluator) Settle(s *Answers, deps []int) error {
	stopping := e.cfg.stopping()
	if stopping {
		s.pace = e.stop
	}
	return e.settle(s, deps, stopping)
}

// settle acquires deps: in one Full exchange when nothing stops and
// nothing is weighted, otherwise round by round until every one is
// done, reallocating stopping's savings among them.
func (e *Evaluator) settle(s *Answers, deps []int, stopping bool) error {
	if !stopping && e.weights == nil {
		return s.Full(deps)
	}
	for {
		more, err := s.Round(deps)
		if err != nil {
			return err
		}
		if !more {
			break
		}
	}
	if stopping {
		e.reallocate(s, deps)
	}
	return nil
}

// RoundTarget is the incremental asking schedule Answers.Round paces
// every attribute by: the cumulative answer count it should hold after
// the given round, starting at minAnswers and stepping evenly to cap by
// the last of rounds. The platform memoizes answer prefixes, so asking
// in rounds is charge-identical to one fixed call.
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

// hardMax is the boost ceiling for attribute i: b(a)·(1+MaxBoost).
func (e *Evaluator) hardMax(i int) int {
	return e.sup.Counts[i] + int(e.cfg.MaxBoost*float64(e.sup.Counts[i]))
}

// reallocate runs the bandit extension over deps: questions saved by
// stopped attributes fund extra chunks for the attribute with the
// largest sensitivity-scaled confidence halfwidth (the biggest marginal
// error reduction per answer), first from this object's own savings and
// then from the cross-object pool. Unspent savings are deposited for
// later objects. Attributes without a stopping test are never boosted.
// Boost failures from budget exhaustion end the extension quietly — the
// object keeps a valid estimate either way.
func (e *Evaluator) reallocate(s *Answers, deps []int) {
	if !e.cfg.Reallocate {
		return
	}
	var budget crowd.Cost
	for _, i := range deps {
		if gap := e.sup.Counts[i] - len(s.attrs[i].values); gap > 0 {
			budget += crowd.Cost(gap) * e.sup.Prices[i]
		}
	}
	for round := 0; round < e.cfg.BoostRounds; round++ {
		best, bestScore := -1, 0.0
		for _, i := range deps {
			a := &s.attrs[i]
			if n := len(a.values); a.test == nil || a.test.Stable() || n < e.sup.Counts[i] || n >= e.hardMax(i) {
				continue
			}
			if score := a.test.StdErr() * e.sens[i]; best < 0 || score > bestScore {
				best, bestScore = i, score
			}
		}
		if best < 0 {
			break
		}
		chunk := (e.sup.Counts[best] + e.cfg.Rounds - 1) / e.cfg.Rounds
		if chunk < 1 {
			chunk = 1
		}
		if room := e.hardMax(best) - len(s.attrs[best].values); chunk > room {
			chunk = room
		}
		cost := crowd.Cost(chunk) * e.sup.Prices[best]
		if cost > budget {
			// Top the object's savings up from the cross-object pool.
			e.mu.Lock()
			ok := e.poolMills >= cost-budget
			if ok {
				e.poolMills -= cost - budget
			}
			e.mu.Unlock()
			if !ok {
				break
			}
			budget = cost
		}
		if err := s.boost(best, chunk); err != nil {
			break
		}
		budget -= cost
		s.Stats.Boosted += int64(chunk)
	}
	e.mu.Lock()
	e.poolMills += budget
	e.mu.Unlock()
}

// weightedMean is the reliability-weighted mean of one attribute's
// answers (unknown workers weigh 1), or flat — the stats.Mean the fixed
// path uses — when worker identities did not flow.
func (e *Evaluator) weightedMean(a *attrAnswers, flat float64) float64 {
	if len(a.workers) != len(a.values) || len(a.values) == 0 {
		return flat
	}
	var num, den float64
	for j, v := range a.values {
		w := e.weights[a.workers[j]]
		if w == 0 {
			w = 1
		}
		num += w * v
		den += w
	}
	if den == 0 {
		return flat
	}
	return num / den
}

// book adds one object's counters to the evaluator's.
func (e *Evaluator) book(s Stats) {
	e.mu.Lock()
	e.stats.Add(s)
	e.mu.Unlock()
}

// Stats snapshots the evaluator's counters.
func (e *Evaluator) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.PoolMills = e.poolMills
	s.CalibratedWorkers = len(e.weights)
	return s
}

// EvaluateBatch runs Estimate over many objects with bounded
// concurrency on the shared pool, mirroring core.EvaluateBatch.
func (e *Evaluator) EvaluateBatch(objects []*domain.Object, parallelism int) ([]map[string]float64, error) {
	return core.EvaluateBatchFunc(objects, parallelism, e.Estimate)
}
