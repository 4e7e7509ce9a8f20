package adaptive

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/sprt"
	"repro/internal/stats"
)

// This file is the online phase's one answer-acquisition loop. Every
// online evaluator (fixed budgets with an answer memo, the adaptive
// Evaluator, the lazy query engine) buys answers through an Answers
// state over a Support; the evaluators differ only in which attributes
// they fetch next and when they stop.

// AnswerMemo is the answer-reuse surface acquisition reads through. It
// holds one answer prefix per (attribute, object) — the values, and
// their workers when a question asked for them. The simulated crowd
// answers deterministically per (object, attribute, answer index), so a
// stored prefix is bit-identical to what any session would buy: serving
// it changes spend, never an output bit. The serving tier's answer cache
// implements it with single-flight fills and LRU/TTL eviction;
// query.MapMemo implements it for single-goroutine scopes.
type AnswerMemo interface {
	// Resolve answers qs. A question is served when its stored prefix
	// Serves it; pay buys the rest in one exchange (in their order in qs)
	// and their answers are stored in place of any shorter prefix.
	// reused[i] reports that question i was served — including by joining
	// another caller's in-flight purchase — so this caller paid nothing
	// for it. A served answer set may hold more than N answers.
	Resolve(qs []crowd.ObjectValueQuestion, pay func([]crowd.ObjectValueQuestion) ([]crowd.ValueAnswers, error)) (answers []crowd.ValueAnswers, reused []bool, err error)
}

// Serves reports whether a stored prefix answers q: it holds at least N
// answers, and their workers when q asks for them.
func Serves(a crowd.ValueAnswers, q crowd.ObjectValueQuestion) bool {
	return len(a.Values) >= q.N && (!q.Workers || len(a.Workers) == len(a.Values))
}

// Stats is the online phase's one counter record: every evaluator
// (fixed, adaptive, lazy, with or without an answer memo) books into it.
type Stats struct {
	// Objects is the number of objects evaluated.
	Objects int64
	// QuestionsAsked is the number of answers bought from the platform,
	// reallocation boosts included.
	QuestionsAsked int64
	// QuestionsSkipped is how many of the plan's b(a) answers per object
	// were never bought: stopped early, left out by a lazy decision or
	// served from the answer memo. Objects whose evaluation failed book
	// none.
	QuestionsSkipped int64
	// Boosted is how many answers beyond b(a) reallocation bought.
	Boosted int64
	// AnswersReused is the number of answers served from the memo instead
	// of being bought, and SpendSavedMills their price — the amount a
	// memo-less run would have added to the ledger.
	AnswersReused   int64
	SpendSavedMills int64
	// ObjectsShortCircuited counts objects rejected before every WHERE
	// predicate was paid for, ObjectsPruned WHERE survivors dropped by the
	// top-k confidence bound, and PredicatesEarly predicate decisions
	// settled before their attributes' full budget.
	ObjectsShortCircuited int64
	ObjectsPruned         int64
	PredicatesEarly       int64
	// PoolMills is the adaptive evaluator's undistributed savings pool.
	PoolMills crowd.Cost
	// CalibratedWorkers is how many workers the reliability pilot scored
	// (0 = flat mean, either by config or missing worker identities).
	CalibratedWorkers int
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Objects += o.Objects
	s.QuestionsAsked += o.QuestionsAsked
	s.QuestionsSkipped += o.QuestionsSkipped
	s.Boosted += o.Boosted
	s.AnswersReused += o.AnswersReused
	s.SpendSavedMills += o.SpendSavedMills
	s.ObjectsShortCircuited += o.ObjectsShortCircuited
	s.ObjectsPruned += o.ObjectsPruned
	s.PredicatesEarly += o.PredicatesEarly
	s.PoolMills += o.PoolMills
	s.CalibratedWorkers += o.CalibratedWorkers
}

// Schedule applies the shared defaults of the stopping multiplier and
// the round schedule: Z 1.96, MinAnswers 3 and Rounds 4 (a schedule
// needs at least 2 rounds).
func Schedule(z float64, minAnswers, rounds int) (float64, int, int) {
	if z == 0 {
		z = 1.96
	}
	if minAnswers <= 0 {
		minAnswers = 3
	}
	if rounds < 2 {
		rounds = 4
	}
	return z, minAnswers, rounds
}

// Support is a plan's online question set on one platform: the support
// attributes in the compiled order PredictFromMeans expects, their
// per-object budgets b(a), their per-answer prices and the answer memo.
type Support struct {
	Platform crowd.Platform
	Attrs    []string
	Counts   []int
	Prices   []crowd.Cost
	// Memo serves and stores answer prefixes; nil means no reuse.
	Memo AnswerMemo
	// All lists every support index, for fetches over the whole support.
	All []int

	plan *core.Plan
}

// NewSupport binds the plan's support to a platform. A nil memo means
// no reuse.
func NewSupport(p crowd.Platform, plan *core.Plan, memo AnswerMemo) (*Support, error) {
	attrs, counts, err := plan.Support()
	if err != nil {
		return nil, err
	}
	sup := &Support{Platform: p, Attrs: attrs, Counts: counts, Memo: memo, plan: plan,
		Prices: make([]crowd.Cost, len(attrs)), All: make([]int, len(attrs))}
	pricing := p.Pricing()
	for i, a := range attrs {
		sup.All[i] = i
		if p.IsBinary(a) {
			sup.Prices[i] = pricing.BinaryValue
		} else {
			sup.Prices[i] = pricing.NumericValue
		}
	}
	return sup, nil
}

// Pace is how an acquisition asks: Round steps every attribute along
// RoundTarget from MinAnswers to b(a) over Rounds, worker identities
// come back when Workers is set, and Tests holds each support
// attribute's stopping test (nil: no attribute stops before b(a)).
type Pace struct {
	MinAnswers, Rounds int
	Workers            bool
	Tests              []sprt.MeanConfig
}

// Answers is one object's acquisition state over a Support. For each
// attribute it holds the answers taken so far (and their workers when
// asked for), how many of them the platform delivered, the round index,
// a done latch (b(a) reached or stable), the stopping test, and the
// running mean with its confidence halfwidth. Round, Full and the
// reallocation boost fill it, each in exactly one exchange through the
// memo.
type Answers struct {
	sup  *Support
	pace Pace
	obj  *domain.Object
	// Means and HW are the running means and Z·stderr confidence
	// halfwidths per support attribute (0 once the attribute is done).
	Means, HW []float64
	// Stats counts the answers this object bought and reused.
	Stats Stats

	attrs []attrAnswers
	// The queued exchange: its questions and each one's support index;
	// ask bound once as the memo's payment.
	qs  []crowd.ObjectValueQuestion
	idx []int
	pay func([]crowd.ObjectValueQuestion) ([]crowd.ValueAnswers, error)
}

// attrAnswers is one attribute's slice of an Answers state; its answer
// count is len(values), of which the first bought came from the
// platform and the rest from the memo.
type attrAnswers struct {
	values  []float64
	workers []int
	bought  int
	test    *sprt.MeanTest
	round   int
	done    bool
}

// Object starts o's acquisition under pace. The zero Pace suits an
// acquisition that only calls Full.
func (sup *Support) Object(o *domain.Object, pace Pace) *Answers {
	k := len(sup.Attrs)
	buf := make([]float64, 2*k)
	s := &Answers{sup: sup, Means: buf[:k:k], HW: buf[k:], attrs: make([]attrAnswers, k)}
	s.pay = s.ask
	s.Reset(o, pace)
	return s
}

// Reset starts acquiring o under pace, keeping the state's buffers for a
// caller that evaluates objects one after another. Answers the previous
// object held are overwritten.
func (s *Answers) Reset(o *domain.Object, pace Pace) {
	s.obj, s.pace, s.Stats = o, pace, Stats{}
	clear(s.Means)
	clear(s.HW)
	for j := range s.attrs {
		a := &s.attrs[j]
		*a = attrAnswers{values: a.values[:0], workers: a.workers[:0]}
	}
}

// Done reports whether attribute j needs no more answers.
func (s *Answers) Done(j int) bool { return s.attrs[j].done }

// Asked returns how many answers attribute j holds.
func (s *Answers) Asked(j int) int { return len(s.attrs[j].values) }

// Skipped returns how many of the object's b(a) answers it has not
// bought: never taken, or served by the memo.
func (s *Answers) Skipped() int64 {
	var n int64
	for j, a := range s.attrs {
		if gap := s.sup.Counts[j] - a.bought; gap > 0 {
			n += int64(gap)
		}
	}
	return n
}

// Round advances every listed attribute that is not done by one step of
// RoundTarget pacing, in one exchange. It reports false when nothing was
// left to ask, or when an exchange past the scheduled rounds brought no
// new answers — a platform returning persistently short batches ends the
// walk instead of spinning it.
func (s *Answers) Round(deps []int) (bool, error) {
	late := true
	for _, j := range deps {
		a := &s.attrs[j]
		if a.done {
			continue
		}
		to := RoundTarget(a.round, len(a.values), s.sup.Counts[j], s.pace.MinAnswers, s.pace.Rounds)
		a.round++
		if to > len(a.values) {
			late = late && a.round > s.pace.Rounds
			s.queue(j, to)
		}
	}
	if len(s.qs) == 0 {
		return false, nil
	}
	grew, err := s.exchange()
	return grew || !late, err
}

// Full takes every listed attribute that is not done to b(a) in one
// exchange.
func (s *Answers) Full(deps []int) error {
	for _, j := range deps {
		if !s.attrs[j].done {
			s.queue(j, s.sup.Counts[j])
		}
	}
	if len(s.qs) == 0 {
		return nil
	}
	_, err := s.exchange()
	return err
}

// boost takes n answers of attribute j beyond what it holds.
func (s *Answers) boost(j, n int) error {
	s.queue(j, len(s.attrs[j].values)+n)
	_, err := s.exchange()
	return err
}

// own books the answers the memo served this state that the session
// bought itself in an earlier state — paid[j] of attribute j — as asked
// rather than reused.
func (s *Answers) own(paid []int) {
	for j := range s.attrs {
		a := &s.attrs[j]
		if n := min(paid[j], len(a.values)) - a.bought; n > 0 {
			a.bought += n
			s.book(j, n, -n)
		}
	}
}

// book counts asked answers of attribute j bought and reused answers
// served (negative counts move answers between the two).
func (s *Answers) book(j, asked, reused int) {
	s.Stats.QuestionsAsked += int64(asked)
	s.Stats.AnswersReused += int64(reused)
	s.Stats.SpendSavedMills += int64(reused) * int64(s.sup.Prices[j])
}

func (s *Answers) queue(j, n int) {
	s.qs = append(s.qs, crowd.ObjectValueQuestion{Object: s.obj, Attr: s.sup.Attrs[j], N: n, Workers: s.pace.Workers})
	s.idx = append(s.idx, j)
}

// exchange resolves the queued questions through the memo (straight
// from the platform without one) and folds the answers in. It reports
// whether any attribute gained answers.
func (s *Answers) exchange() (bool, error) {
	qs, idx := s.qs, s.idx
	s.qs, s.idx = qs[:0], idx[:0]
	var answers []crowd.ValueAnswers
	var reused []bool
	var err error
	if s.sup.Memo != nil {
		answers, reused, err = s.sup.Memo.Resolve(qs, s.pay)
	} else {
		answers, err = s.ask(qs)
	}
	if err != nil {
		return false, err
	}
	grew := false
	for k, j := range idx {
		n, err := s.ingest(j, qs[k].N, answers[k], reused != nil && reused[k])
		if err != nil {
			return grew, err
		}
		grew = grew || n > 0
	}
	return grew, nil
}

// ask buys qs from the platform in one Values exchange.
func (s *Answers) ask(qs []crowd.ObjectValueQuestion) ([]crowd.ValueAnswers, error) {
	answers, err := s.sup.Platform.Values(qs)
	if err != nil {
		return nil, fmt.Errorf("adaptive: value questions: %w", err)
	}
	if len(answers) != len(qs) {
		return nil, fmt.Errorf("adaptive: value batch returned %d answer sets, want %d", len(answers), len(qs))
	}
	return answers, nil
}

// ingest appends the unseen suffix of attribute j's cumulative answers
// to a question for n (and of their workers, when they flow), recomputes
// its mean with the same stats.Mean the fixed path uses — so a fully
// fetched attribute's mean is bit-identical to EstimateObject's — and
// feeds its stopping test. A prefix the memo served is taken to n, or
// to max(n, b(a)) when it holds b(a) answers: a full-budget hit finishes
// the attribute, while a shorter one replays the rounds of the session
// that stored it. Served answers are booked as reused; a purchase is
// booked as asked, including the answers of it the memo served earlier.
// A platform returning fewer answers than were already taken is an
// error.
func (s *Answers) ingest(j, n int, ans crowd.ValueAnswers, served bool) (int, error) {
	a := &s.attrs[j]
	had := len(a.values)
	vals := ans.Values
	if served {
		// Serves guarantees len(vals) ≥ n.
		take := n
		if len(vals) >= s.sup.Counts[j] {
			take = max(n, s.sup.Counts[j])
		}
		vals = vals[:take]
	}
	if len(vals) < had {
		return 0, fmt.Errorf("adaptive: platform shrank %q answers %d → %d", s.sup.Attrs[j], had, len(vals))
	}
	fresh := vals[had:]
	a.values = append(a.values, fresh...)
	if s.pace.Workers && len(ans.Workers) == len(ans.Values) {
		a.workers = append(a.workers, ans.Workers[had:len(vals)]...)
	}
	if served {
		s.book(j, 0, len(fresh))
	} else {
		s.book(j, len(vals)-a.bought, a.bought-had)
		a.bought = len(vals)
	}
	s.Means[j] = stats.Mean(a.values)
	if s.pace.Tests != nil {
		if a.test == nil {
			t, err := sprt.NewMean(s.pace.Tests[j])
			if err != nil {
				return 0, err
			}
			a.test = t
		}
		for _, v := range fresh {
			a.test.Observe(v)
		}
	}
	switch {
	case len(a.values) >= s.sup.Counts[j] || (a.test != nil && a.test.Stable()):
		a.done, s.HW[j] = true, 0
	case a.test != nil:
		s.HW[j] = a.test.Halfwidth()
	}
	return len(fresh), nil
}
