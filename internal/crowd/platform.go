package crowd

import (
	"repro/internal/domain"
)

// Example is the result of one example question: an object together with
// its true values for the attributes that were asked about (the paper
// assumes example values are correct; Section 2, "Example Questions").
type Example struct {
	Object *domain.Object
	// Values holds the true value per requested attribute name.
	Values map[string]float64
}

// Platform is the crowd access layer the algorithms run against. A real
// deployment would implement it on top of CrowdFlower/Mechanical Turk;
// this repository ships SimPlatform.
//
// Value answers and example streams are *memoized per question identity*:
// asking for the first n answers twice charges only once, and asking for
// n+m answers after n charges only the m new ones. This gives the
// algorithms the answer-reuse behaviour the paper relies on (skipping the
// first N_1 example questions when collecting the regression training set,
// asking only b(a)−k additional value questions, and reusing recorded
// answers across algorithm comparisons).
type Platform interface {
	// Values answers value questions in one exchange: answers[i] holds
	// the first qs[i].N single-worker answers about qs[i].Attr on
	// qs[i].Object, and the platform generates (and charges for) only the
	// ones not yet asked. Each question is memoized independently, so a
	// batch is answer-wise indistinguishable from len(qs) batches of one —
	// same answers, same charges (including partial charges when the
	// budget runs out mid-batch) — and only the exchange granularity
	// differs. Workers is filled only for questions that ask for it, and
	// stays nil when the platform cannot tell who answered. Implementations
	// must not retain qs.
	Values(qs []ObjectValueQuestion) ([]ValueAnswers, error)

	// Dismantle asks one dismantling question about attr and returns the
	// (possibly non-canonical) attribute name a worker replied with.
	Dismantle(attr string) (string, error)

	// Verify asks one verification question: does knowing candidate help
	// estimating target?
	Verify(candidate, target string) (bool, error)

	// Examples returns the first n examples of the stream associated with
	// the given target attributes, charging only for new ones. Each
	// example carries true values for exactly those targets.
	Examples(targets []string, n int) ([]Example, error)

	// Canonical normalizes an attribute name workers may have used to the
	// platform's canonical form. With the unification mechanism disabled
	// (Section 5.4's "Normalization Mechanism" ablation) it returns the
	// name unchanged.
	Canonical(name string) string

	// Sigma returns the platform's prior estimate of the standard
	// deviation of true values for an attribute (used for scaling
	// heuristics; a real platform would expose coarse metadata).
	Sigma(attr string) float64

	// IsBinary reports whether the attribute is boolean, which determines
	// the value-question price.
	IsBinary(attr string) bool

	// Pricing returns the payment scheme in force.
	Pricing() Pricing

	// Ledger returns the active budget ledger.
	Ledger() *Ledger

	// SetLedger swaps the active ledger (e.g. between the preprocessing
	// and online phases) and returns the previous one. Caches survive.
	SetLedger(l *Ledger) *Ledger

	// ForkPlatform returns an independent copy-on-write view of the
	// platform — fresh ledger, no questions asked, shared memoized answer
	// pools — or nil when the platform cannot fork. Wrappers fork the
	// platform they wrap and rewrap the result, so a latency-modeled or
	// retrying stack forks as a whole; callers that get nil (the serving
	// tier) fall back to mutex-serialized sessions.
	ForkPlatform() Platform

	// Stats reports the wire round trips and fault counters of the whole
	// platform stack; wrappers add their own counters to the wrapped
	// platform's.
	Stats() Stats
}

// platform lets the wrappers embed the Platform they wrap under an
// unexported field name, so every method they do not override passes
// through without adding a public field to the exported wrapper types.
type platform = Platform

// ValueQuestion names one value question about an object left implicit:
// the first N answers about Attr. core.Plan.Questions enumerates an
// object's online questions in this form.
type ValueQuestion struct {
	Attr string
	N    int
}

// ObjectValueQuestion names one value question of a batch: the first N
// answers about Attr on Object. Workers asks for the worker behind each
// answer (quality-weighted aggregation needs it; the DisQ algorithm
// itself never does).
type ObjectValueQuestion struct {
	Object  *domain.Object
	Attr    string
	N       int
	Workers bool
}

// ValueAnswers answers one ObjectValueQuestion. Workers[i] is the worker
// who gave Values[i]; it is nil unless the question asked for workers
// and the platform can tell.
type ValueAnswers struct {
	Values  []float64
	Workers []int
}

// Value returns the first n answers about o.attr through a batch of one.
func Value(p Platform, o *domain.Object, attr string, n int) ([]float64, error) {
	ans, err := p.Values([]ObjectValueQuestion{{Object: o, Attr: attr, N: n}})
	if err != nil {
		return nil, err
	}
	return ans[0].Values, nil
}

// Stats counts a platform stack's wire traffic and fault handling.
type Stats struct {
	// Requests counts wire round trips (HTTP attempts for
	// crowdhttp.Client, including retries) — distinct from questions,
	// since one batched request can carry many questions. In-process
	// platforms perform none.
	Requests int64
	FaultStats
}
