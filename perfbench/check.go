package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/query"
	"repro/internal/serve"
)

// The budgets every workload uses: B_obj = 4¢ per object online and
// B_prc = $10 per plan offline.
var (
	bObj = crowd.Cents(4)
	bPrc = crowd.Dollars(10)
)

// heldOut is the size of the fixed object set weighted_err is measured
// on, and heldOutSeed the seed it is drawn with. Neither depends on
// --seed, so the error moves only when the code does.
const (
	heldOut     = 200
	heldOutSeed = 20150323
)

// errMismatch marks an output that differs from its reference.
var errMismatch = errors.New("output differs from reference")

// mode is how a reference evaluates a statement: the evaluator the
// request asked for, at the same defaults the tier applies.
type mode int

const (
	modeEager mode = iota
	modeLazy
	modeAdaptive
)

// reference is the output a request must reproduce: its rows, and what a
// cold fixed-seed crowd charges for them.
type reference struct {
	rows  []serve.Row
	spend crowd.Cost
}

// universeAt returns a new recipes universe whose next object id is next.
// A plan depends on the ids the crowd gives its example objects, which
// continue from the universe's next id when the platform (or the
// snapshot a tier forks sessions from) was made; a reference plan must
// start from the same id.
func universeAt(next int) *domain.Universe {
	u := domain.Recipes()
	for u.PeekID() < next {
		u.AllocID()
	}
	return u
}

// referencePlan builds the plan a query must get, with core.Preprocess on
// a fresh simulated crowd of the given seed over a fresh universe whose
// next object id is next.
func referencePlan(next int, seed int64, targets []string) (*core.Plan, error) {
	p, err := crowd.NewSim(universeAt(next), crowd.SimOptions{Seed: seed})
	if err != nil {
		return nil, err
	}
	return core.Preprocess(p, core.Query{Targets: targets}, bObj, bPrc, core.Options{})
}

// evaluate computes a statement's reference with query.Engine on a fresh
// simulated crowd of the given seed.
func evaluate(u *domain.Universe, seed int64, plan *core.Plan, st *query.Statement, m mode, objs []*domain.Object) (*reference, error) {
	p, err := crowd.NewSim(u, crowd.SimOptions{Seed: seed})
	if err != nil {
		return nil, err
	}
	eng, err := query.NewEngine(p, plan, st)
	if err != nil {
		return nil, err
	}
	switch m {
	case modeLazy:
		eng.SetLazy(query.LazyDefaults())
	case modeAdaptive:
		cfg := adaptive.Defaults()
		eng.SetAdaptive(&cfg)
	}
	rows, err := eng.Execute(st, objs)
	if err != nil {
		return nil, err
	}
	ref := &reference{rows: make([]serve.Row, len(rows)), spend: p.Ledger().Spent()}
	for i, r := range rows {
		ref.rows[i] = serve.Row{ObjectID: r.Object.ID, Values: r.Values}
		if st.Order != nil {
			ref.rows[i].SortKey = r.Key
		}
	}
	return ref, nil
}

// checkResult compares a session's output with its reference: row ids,
// values and sort keys bit for bit, and the spend to the mill. A reuse
// session's spend counts what it was served from cache.
func checkResult(res *serve.Result, ref *reference) error {
	if len(res.Rows) != len(ref.rows) {
		return fmt.Errorf("%w: %d rows, want %d", errMismatch, len(res.Rows), len(ref.rows))
	}
	for i, r := range res.Rows {
		w := ref.rows[i]
		if r.ObjectID != w.ObjectID || !sameBits(r.SortKey, w.SortKey) || len(r.Values) != len(w.Values) {
			return fmt.Errorf("%w: row %d is object %d key %v, want object %d key %v",
				errMismatch, i, r.ObjectID, r.SortKey, w.ObjectID, w.SortKey)
		}
		for a, v := range w.Values {
			if got, ok := r.Values[a]; !ok || !sameBits(got, v) {
				return fmt.Errorf("%w: row %d %s = %v, want %v", errMismatch, i, a, got, v)
			}
		}
	}
	spend := res.OnlineSpent
	if res.Reuse {
		spend += crowd.Cost(res.SpendSavedMills)
	}
	if spend != ref.spend {
		return fmt.Errorf("%w: spend %d mills, want %d", errMismatch, spend, ref.spend)
	}
	return nil
}

// checkPlan compares a plan with its reference: targets, weights, the
// budget distribution, every regression coefficient and the
// preprocessing cost, floats bit for bit.
func checkPlan(got, want *core.Plan) error {
	if !slices.Equal(got.Targets, want.Targets) {
		return fmt.Errorf("%w: targets %v, want %v", errMismatch, got.Targets, want.Targets)
	}
	if got.PreprocessCost != want.PreprocessCost {
		return fmt.Errorf("%w: preprocess cost %d mills, want %d", errMismatch, got.PreprocessCost, want.PreprocessCost)
	}
	if got.Budget.Cost != want.Budget.Cost || len(got.Budget.Counts) != len(want.Budget.Counts) {
		return fmt.Errorf("%w: budget %v, want %v", errMismatch, got.Budget, want.Budget)
	}
	for a, n := range want.Budget.Counts {
		if got.Budget.Counts[a] != n {
			return fmt.Errorf("%w: budget of %s is %d, want %d", errMismatch, a, got.Budget.Counts[a], n)
		}
	}
	if len(got.Weights) != len(want.Weights) {
		return fmt.Errorf("%w: weights %v, want %v", errMismatch, got.Weights, want.Weights)
	}
	for t, w := range want.Weights {
		if !sameBits(got.Weights[t], w) {
			return fmt.Errorf("%w: weight of %s is %v, want %v", errMismatch, t, got.Weights[t], w)
		}
	}
	if len(got.Regressions) != len(want.Regressions) {
		return fmt.Errorf("%w: %d regressions, want %d", errMismatch, len(got.Regressions), len(want.Regressions))
	}
	for t, w := range want.Regressions {
		g := got.Regressions[t]
		if g == nil || !slices.Equal(g.Attributes, w.Attributes) || !slices.Equal(g.SquareAttributes, w.SquareAttributes) ||
			!sameFloats(g.Coefficients, w.Coefficients) || !sameFloats(g.SquareCoefficients, w.SquareCoefficients) ||
			!sameBits(g.Intercept, w.Intercept) {
			return fmt.Errorf("%w: regression of %s differs", errMismatch, t)
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, sameBits)
}

// heldOutSet is the fixed object set weighted_err is measured on, in a
// universe of its own.
type heldOutSet struct {
	u    *domain.Universe
	objs []*domain.Object
}

func newHeldOut() heldOutSet {
	u := domain.Recipes()
	return heldOutSet{u: u, objs: u.NewObjects(rand.New(rand.NewSource(heldOutSeed)), heldOut)}
}

// weightedErr is the paper's query error of a plan, Σ_t ω_t·MSE_t, on the
// held-out objects, estimated through a fresh simulated crowd of the
// given seed.
func (h heldOutSet) weightedErr(seed int64, plan *core.Plan) (float64, error) {
	u, objs := h.u, h.objs
	p, err := crowd.NewSim(u, crowd.SimOptions{Seed: seed})
	if err != nil {
		return 0, err
	}
	var total float64
	sq := make(map[string]float64, len(plan.Targets))
	for _, o := range objs {
		est, err := plan.EstimateObject(p, o)
		if err != nil {
			return 0, err
		}
		for _, t := range plan.Targets {
			truth, err := u.Truth(o, t)
			if err != nil {
				return 0, err
			}
			d := est[t] - truth
			sq[t] += d * d
		}
	}
	for _, t := range plan.Targets {
		total += plan.Weights[t] * sq[t] / float64(len(objs))
	}
	return total, nil
}
