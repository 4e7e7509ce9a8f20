package query

import (
	"repro/internal/adaptive"
	"repro/internal/crowd"
)

// AnswerMemo is the answer-reuse surface the query engine reads through
// (see adaptive.AnswerMemo): one answer prefix per (attribute, object).
// The serving tier's answer cache implements it with single-flight
// fills and LRU/TTL eviction; MapMemo implements it for single-goroutine
// scopes.
type AnswerMemo = adaptive.AnswerMemo

// MapMemo is the minimal AnswerMemo: a plain map, no locking, no
// eviction, no fill coalescing. It serves single-goroutine scopes — one
// statement, one bench arm, tests — while internal/serve's answer cache
// provides the concurrent cross-session implementation.
type MapMemo struct {
	m map[memoKey]crowd.ValueAnswers
}

// memoKey identifies one stored answer prefix.
type memoKey struct {
	attr   string
	object int
}

// NewMapMemo returns an empty memo.
func NewMapMemo() *MapMemo { return &MapMemo{m: make(map[memoKey]crowd.ValueAnswers)} }

// Resolve implements AnswerMemo.
func (m *MapMemo) Resolve(qs []crowd.ObjectValueQuestion, pay func([]crowd.ObjectValueQuestion) ([]crowd.ValueAnswers, error)) ([]crowd.ValueAnswers, []bool, error) {
	out := make([]crowd.ValueAnswers, len(qs))
	reused := make([]bool, len(qs))
	var miss []crowd.ObjectValueQuestion
	var at []int
	for i, q := range qs {
		if a, ok := m.m[memoKey{q.Attr, q.Object.ID}]; ok && adaptive.Serves(a, q) {
			out[i], reused[i] = a, true
		} else {
			miss, at = append(miss, q), append(at, i)
		}
	}
	if len(miss) > 0 {
		paid, err := pay(miss)
		if err != nil {
			return nil, nil, err
		}
		for k, i := range at {
			out[i] = paid[k]
			m.m[memoKey{qs[i].Attr, qs[i].Object.ID}] = paid[k]
		}
	}
	return out, reused, nil
}

// Len reports the number of stored prefixes.
func (m *MapMemo) Len() int { return len(m.m) }
