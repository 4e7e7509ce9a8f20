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

// ReuseQuestion identifies one fully-budgeted crowd question: "the mean
// of N answers about this object's attribute". N is part of the key — a
// mean over a different answer count is a different quantity, so cached
// entries never leak across per-question budget tiers.
//
// The simulated crowd answers deterministically per (object, attribute,
// prefix), which is what makes the mean a reusable asset: any session
// that pays the same question gets the bit-identical mean, so serving a
// cached copy changes spend but not a single output bit.
type ReuseQuestion struct {
	ObjectID int
	Attr     string
	N        int
}

// AnswerMemo is the answer-reuse surface acquisition consults. The
// serving tier's answer cache implements it with single-flight fills and
// LRU/TTL eviction; query.MapMemo implements it for single-goroutine
// scopes.
type AnswerMemo interface {
	// Resolve fills one mean per question, calling pay with the indices
	// of the questions it does not hold; pay returns the freshly bought
	// means aligned with miss. On a quiescent memo pay runs at most once
	// with every miss (implementations may call it again with a disjoint
	// set when a concurrent fill they joined fails). reused[i] reports
	// that question i was served from the memo — including joining
	// another session's in-flight purchase — so this caller paid nothing
	// for it. The contract is that the returned means are exactly what
	// pay would have produced: the deterministic crowd makes the cached
	// copy bit-identical.
	Resolve(qs []ReuseQuestion, pay func(miss []int) ([]float64, error)) (means []float64, reused []bool, err error)
	// Peek returns the cached mean without filling or blocking — the
	// probe before a partial fetch is priced.
	Peek(q ReuseQuestion) (float64, bool)
	// Publish offers a fully-budgeted mean the caller already paid for.
	// Implementations must never clobber an existing entry.
	Publish(q ReuseQuestion, mean float64)
}

// noMemo is the memo of a run without reuse: it holds nothing, so every
// question is paid for.
type noMemo struct{}

func (noMemo) Resolve(qs []ReuseQuestion, pay func(miss []int) ([]float64, error)) ([]float64, []bool, error) {
	miss := make([]int, len(qs))
	for i := range miss {
		miss[i] = i
	}
	means, err := pay(miss)
	return means, make([]bool, len(qs)), err
}

func (noMemo) Peek(ReuseQuestion) (float64, bool) { return 0, false }
func (noMemo) Publish(ReuseQuestion, float64)     {}

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
	Memo     AnswerMemo
	// All lists every support index, for fetches over the whole support.
	All []int
}

// NewSupport binds the plan's support to a platform. A nil memo means
// no reuse.
func NewSupport(p crowd.Platform, plan *core.Plan, memo AnswerMemo) (*Support, error) {
	attrs, counts, err := plan.Support()
	if err != nil {
		return nil, err
	}
	if memo == nil {
		memo = noMemo{}
	}
	sup := &Support{Platform: p, Attrs: attrs, Counts: counts, Memo: memo,
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
// attribute it holds the answers bought so far (and their workers when
// asked for), the round index, a done latch (b(a) reached, stable, or
// served by the memo), the stopping test, and the running mean with its
// confidence halfwidth. Round and Full fill it, each in exactly one
// Values exchange.
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
	// Exchange and memo buffers: the support index of each queued
	// question and of each question Full resolves, and buy bound once.
	qs    []crowd.ObjectValueQuestion
	idx   []int
	rq    []ReuseQuestion
	rqIdx []int
	pay   func(miss []int) ([]float64, error)
}

// attrAnswers is one attribute's slice of an Answers state; its answer
// count is len(values).
type attrAnswers struct {
	values  []float64
	workers []int
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
	s.pay = s.buy
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

// Asked returns how many answers attribute j has bought.
func (s *Answers) Asked(j int) int { return len(s.attrs[j].values) }

// Skipped returns how many of the object's b(a) answers it has not
// bought.
func (s *Answers) Skipped() int64 {
	var n int64
	for j, a := range s.attrs {
		if gap := s.sup.Counts[j] - len(a.values); gap > 0 {
			n += int64(gap)
		}
	}
	return n
}

// Round advances every listed attribute that is not done by one step of
// RoundTarget pacing, in one exchange; an attribute reaching b(a) is
// published to the memo. It reports false when nothing was left to ask,
// or when an exchange past the scheduled rounds brought no new answers —
// a platform returning persistently short batches ends the walk instead
// of spinning it.
func (s *Answers) Round(deps []int) (bool, error) {
	late := true
	for _, j := range deps {
		a := &s.attrs[j]
		if a.done || s.peek(j) {
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
	grew, err := s.exchange(true)
	return grew || !late, err
}

// Full pays every listed attribute that is not done up to b(a) through
// the memo: held means are reused, the rest are bought in one exchange.
func (s *Answers) Full(deps []int) error {
	s.rq, s.rqIdx = s.rq[:0], s.rqIdx[:0]
	for _, j := range deps {
		if !s.attrs[j].done {
			s.rq = append(s.rq, s.question(j))
			s.rqIdx = append(s.rqIdx, j)
		}
	}
	if len(s.rq) == 0 {
		return nil
	}
	means, reused, err := s.sup.Memo.Resolve(s.rq, s.pay)
	if err != nil {
		return err
	}
	for k, j := range s.rqIdx {
		if reused[k] {
			s.reuse(j, means[k])
		}
	}
	return nil
}

// buy is Full's memo payment: the missing questions in one exchange.
func (s *Answers) buy(miss []int) ([]float64, error) {
	for _, k := range miss {
		s.queue(s.rqIdx[k], s.sup.Counts[s.rqIdx[k]])
	}
	if _, err := s.exchange(false); err != nil {
		return nil, err
	}
	paid := make([]float64, len(miss))
	for n, k := range miss {
		paid[n] = s.Means[s.rqIdx[k]]
	}
	return paid, nil
}

// question is attribute j's full-budget memo key.
func (s *Answers) question(j int) ReuseQuestion {
	return ReuseQuestion{ObjectID: s.obj.ID, Attr: s.sup.Attrs[j], N: s.sup.Counts[j]}
}

// boost buys n answers of attribute j beyond what it holds.
func (s *Answers) boost(j, n int) error {
	s.queue(j, len(s.attrs[j].values)+n)
	_, err := s.exchange(false)
	return err
}

// peek serves attribute j from the memo when it holds the full-budget
// mean — strictly better information than any partial prefix.
func (s *Answers) peek(j int) bool {
	v, ok := s.sup.Memo.Peek(s.question(j))
	if ok {
		s.reuse(j, v)
	}
	return ok
}

// reuse installs a memo mean for attribute j and books the answers the
// object no longer has to buy.
func (s *Answers) reuse(j int, mean float64) {
	n := int64(s.sup.Counts[j] - len(s.attrs[j].values))
	s.Stats.AnswersReused += n
	s.Stats.SpendSavedMills += n * int64(s.sup.Prices[j])
	s.Means[j], s.HW[j], s.attrs[j].done = mean, 0, true
}

func (s *Answers) queue(j, n int) {
	s.qs = append(s.qs, crowd.ObjectValueQuestion{Object: s.obj, Attr: s.sup.Attrs[j], N: n, Workers: s.pace.Workers})
	s.idx = append(s.idx, j)
}

// exchange sends the queued questions as one Values call and folds the
// answers in, publishing attributes that reach b(a) when publish is set.
// It reports whether any attribute gained answers.
func (s *Answers) exchange(publish bool) (bool, error) {
	qs, idx := s.qs, s.idx
	s.qs, s.idx = qs[:0], idx[:0]
	answers, err := s.sup.Platform.Values(qs)
	if err != nil {
		return false, fmt.Errorf("adaptive: value questions: %w", err)
	}
	if len(answers) != len(qs) {
		return false, fmt.Errorf("adaptive: value batch returned %d answer sets, want %d", len(answers), len(qs))
	}
	grew := false
	for k, j := range idx {
		n, err := s.ingest(j, answers[k])
		if err != nil {
			return grew, err
		}
		grew = grew || n > 0
		if publish && len(s.attrs[j].values) >= s.sup.Counts[j] {
			s.sup.Memo.Publish(s.question(j), s.Means[j])
		}
	}
	return grew, nil
}

// ingest appends the unseen suffix of attribute j's cumulative answers
// (and of their workers, when they flow), recomputes its mean with the
// same stats.Mean the fixed path uses — so a fully fetched attribute's
// mean is bit-identical to EstimateObject's — and feeds its stopping
// test. A platform returning fewer answers than were already taken is
// an error.
func (s *Answers) ingest(j int, ans crowd.ValueAnswers) (int, error) {
	a := &s.attrs[j]
	had := len(a.values)
	if len(ans.Values) < had {
		return 0, fmt.Errorf("adaptive: platform shrank %q answers %d → %d", s.sup.Attrs[j], had, len(ans.Values))
	}
	fresh := ans.Values[had:]
	a.values = append(a.values, fresh...)
	if s.pace.Workers && len(ans.Workers) == len(ans.Values) {
		a.workers = append(a.workers, ans.Workers[had:]...)
	}
	s.Stats.QuestionsAsked += int64(len(fresh))
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
