package query

import (
	"fmt"

	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/stats"
)

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

// AnswerMemo is the answer-reuse surface the query engine consults. The
// serving tier's answer cache implements it with single-flight fills and
// LRU/TTL eviction; MapMemo implements it for single-goroutine scopes.
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
	// Peek returns the cached mean without filling or blocking — the lazy
	// evaluator's probe before it prices a fetch.
	Peek(q ReuseQuestion) (float64, bool)
	// Publish offers a fully-budgeted mean the caller already paid for.
	// Implementations must never clobber an existing entry.
	Publish(q ReuseQuestion, mean float64)
}

// ReuseStats counts one Execute's reuse effect. AnswersReused is the
// number of individual crowd answers served from memo instead of being
// re-purchased; SpendSavedMills is their price at the platform's
// per-answer rates (the exact amount a memo-less run would have added to
// OnlineSpent).
type ReuseStats struct {
	AnswersReused   int64
	SpendSavedMills int64
}

// MapMemo is the minimal AnswerMemo: a plain map, no locking, no
// eviction, no fill coalescing. It serves single-goroutine scopes — one
// statement, one bench arm, tests — while internal/serve's answer cache
// provides the concurrent cross-session implementation.
type MapMemo struct {
	m map[ReuseQuestion]float64
}

// NewMapMemo returns an empty memo.
func NewMapMemo() *MapMemo { return &MapMemo{m: make(map[ReuseQuestion]float64)} }

// Resolve implements AnswerMemo.
func (m *MapMemo) Resolve(qs []ReuseQuestion, pay func(miss []int) ([]float64, error)) ([]float64, []bool, error) {
	means := make([]float64, len(qs))
	reused := make([]bool, len(qs))
	var miss []int
	for i, q := range qs {
		if v, ok := m.m[q]; ok {
			means[i] = v
			reused[i] = true
		} else {
			miss = append(miss, i)
		}
	}
	if len(miss) > 0 {
		paid, err := pay(miss)
		if err != nil {
			return nil, nil, err
		}
		for k, i := range miss {
			means[i] = paid[k]
			m.m[qs[i]] = paid[k]
		}
	}
	return means, reused, nil
}

// Peek implements AnswerMemo.
func (m *MapMemo) Peek(q ReuseQuestion) (float64, bool) {
	v, ok := m.m[q]
	return v, ok
}

// Publish implements AnswerMemo.
func (m *MapMemo) Publish(q ReuseQuestion, mean float64) {
	if _, ok := m.m[q]; !ok {
		m.m[q] = mean
	}
}

// Len reports the number of cached questions.
func (m *MapMemo) Len() int { return len(m.m) }

// reuseRun is the eager evaluator's reuse wrapper: per object it resolves
// the plan's full support through the memo and predicts from the means —
// core.Plan.PredictFromMeans runs the same compiled program as
// EstimateObject, so rows are bit-equal to the memo-less path whenever
// the means are (which the deterministic crowd guarantees).
type reuseRun struct {
	e      *Engine
	memo   AnswerMemo
	attrs  []string
	counts []int
	price  []crowd.Cost // per answer, aligned with attrs
	stats  ReuseStats
}

func newReuseRun(e *Engine) (*reuseRun, error) {
	attrs, counts, err := e.plan.Support()
	if err != nil {
		return nil, err
	}
	return &reuseRun{e: e, memo: e.memo, attrs: attrs, counts: counts, price: answerPrices(e.platform, attrs)}, nil
}

// answerPrices returns each attribute's per-answer price.
func answerPrices(p crowd.Platform, attrs []string) []crowd.Cost {
	pricing := p.Pricing()
	price := make([]crowd.Cost, len(attrs))
	for i, a := range attrs {
		if p.IsBinary(a) {
			price[i] = pricing.BinaryValue
		} else {
			price[i] = pricing.NumericValue
		}
	}
	return price
}

// estimate is the drop-in replacement for plan.EstimateObject: memo hits
// cost nothing, misses are bought in one batch shaped exactly like the
// compiled plan's collectMeans (so a cold run's purchases — and ledger —
// are bit-identical to the memo-less engine).
func (r *reuseRun) estimate(o *domain.Object) (map[string]float64, error) {
	qs := make([]ReuseQuestion, len(r.attrs))
	for j, a := range r.attrs {
		qs[j] = ReuseQuestion{ObjectID: o.ID, Attr: a, N: r.counts[j]}
	}
	means, reused, err := r.memo.Resolve(qs, func(miss []int) ([]float64, error) {
		return r.pay(o, miss)
	})
	if err != nil {
		return nil, err
	}
	for j, hit := range reused {
		if hit {
			r.stats.AnswersReused += int64(r.counts[j])
			r.stats.SpendSavedMills += int64(r.counts[j]) * int64(r.price[j])
		}
	}
	return r.e.plan.PredictFromMeans(means)
}

// pay buys the missing questions in one exchange, exactly like
// collectMeans.
func (r *reuseRun) pay(o *domain.Object, miss []int) ([]float64, error) {
	qs := make([]crowd.ObjectValueQuestion, len(miss))
	for k, j := range miss {
		qs[k] = crowd.ObjectValueQuestion{Object: o, Attr: r.attrs[j], N: r.counts[j]}
	}
	answers, err := r.e.platform.Values(qs)
	if err != nil {
		return nil, fmt.Errorf("query: reuse value questions: %w", err)
	}
	if len(answers) != len(qs) {
		return nil, fmt.Errorf("query: value batch returned %d answer sets, want %d", len(answers), len(qs))
	}
	means := make([]float64, len(qs))
	for k, ans := range answers {
		means[k] = stats.Mean(ans.Values)
	}
	return means, nil
}
