package query

import "repro/internal/adaptive"

// ReuseQuestion identifies one fully-budgeted crowd question (object,
// attribute, answer count N) — the key of the answer memo.
type ReuseQuestion = adaptive.ReuseQuestion

// AnswerMemo is the answer-reuse surface the query engine consults (see
// adaptive.AnswerMemo). The serving tier's answer cache implements it
// with single-flight fills and LRU/TTL eviction; MapMemo implements it
// for single-goroutine scopes.
type AnswerMemo = adaptive.AnswerMemo

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
