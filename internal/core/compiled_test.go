package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/crowd"
	"repro/internal/domain"
)

// compiledTestPlan is a hand-built plan exercising every compilation
// case: a zero-count attribute ("c") outside the support, a regression
// term ("z") with no budget, square terms, and two targets.
func compiledTestPlan() *Plan {
	return &Plan{
		Targets: []string{"T1", "T2"},
		Budget:  Assignment{Counts: map[string]int{"a": 2, "b": 3, "c": 0, "d": 1}},
		Regressions: map[string]*Regression{
			"T1": {
				Attributes:         []string{"b", "z", "a"},
				Coefficients:       []float64{0.5, 9.0, -1.25},
				SquareAttributes:   []string{"d"},
				SquareCoefficients: []float64{0.125},
				Intercept:          3.5,
			},
			"T2": {
				Attributes:   []string{"d", "a"},
				Coefficients: []float64{2.0, 0.75},
				Intercept:    -1.0,
			},
		},
	}
}

func TestPlanQuestionsEnumeratesSupport(t *testing.T) {
	pl := compiledTestPlan()
	qs, err := pl.Questions()
	if err != nil {
		t.Fatal(err)
	}
	want := []crowd.ValueQuestion{{Attr: "a", N: 2}, {Attr: "b", N: 3}, {Attr: "d", N: 1}}
	if !reflect.DeepEqual(qs, want) {
		t.Fatalf("Questions() = %v, want %v", qs, want)
	}
	// The slice is a copy: callers may mangle it freely.
	qs[0] = crowd.ValueQuestion{Attr: "mangled", N: 99}
	again, _ := pl.Questions()
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("Questions() after caller mutation = %v, want %v", again, want)
	}
}

func TestCompiledPredictionMatchesInterpreted(t *testing.T) {
	pl := compiledTestPlan()
	cp := pl.compiled()
	if cp.err != nil {
		t.Fatal(cp.err)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		means := make([]float64, len(cp.attrs))
		byName := make(map[string]float64, len(cp.attrs))
		for i, a := range cp.attrs {
			means[i] = rng.NormFloat64() * 10
			byName[a] = means[i]
		}
		out := make([]float64, len(cp.targets))
		cp.predictInto(means, out)
		for ti, target := range pl.Targets {
			// Exact equality: compilation must preserve the interpreted
			// path's floating-point summation order bit for bit.
			if want := pl.Regressions[target].Predict(byName); out[ti] != want {
				t.Fatalf("trial %d, target %s: compiled %v, interpreted %v", trial, target, out[ti], want)
			}
		}
	}
}

func TestCompiledPredictZeroAllocs(t *testing.T) {
	pl := compiledTestPlan()
	cp := pl.compiled()
	means := []float64{1.5, -2.25, 0.5}
	out := make([]float64, len(cp.targets))
	if allocs := testing.AllocsPerRun(1000, func() {
		cp.predictInto(means, out)
	}); allocs != 0 {
		t.Fatalf("predictInto allocates %.1f objects per run, want 0", allocs)
	}
}

func TestPlanMissingRegressionSurfaces(t *testing.T) {
	pl := compiledTestPlan()
	pl.Regressions = map[string]*Regression{"T1": pl.Regressions["T1"]}
	if _, err := pl.Questions(); err == nil || !strings.Contains(err.Error(), "no regression") {
		t.Fatalf("Questions() error = %v, want a missing-regression error", err)
	}
	p := simPlatform(t, domain.Recipes(), 91)
	if _, err := pl.EstimateObject(p, p.Universe().NewObjects(rand.New(rand.NewSource(1)), 1)[0]); err == nil ||
		!strings.Contains(err.Error(), "no regression") {
		t.Fatalf("EstimateObject error = %v, want a missing-regression error", err)
	}
}

// recordingBatcher counts how estimation reaches the platform, so the
// tests below can pin that one exchange carries the whole question set.
type recordingBatcher struct {
	crowd.Platform
	batchCalls int
	lastBatch  []crowd.ValueQuestion
}

func (r *recordingBatcher) Values(qs []crowd.ObjectValueQuestion) ([]crowd.ValueAnswers, error) {
	r.batchCalls++
	r.lastBatch = r.lastBatch[:0]
	for _, q := range qs {
		r.lastBatch = append(r.lastBatch, crowd.ValueQuestion{Attr: q.Attr, N: q.N})
	}
	return r.Platform.Values(qs)
}

func TestEstimateObjectPrefersBatcher(t *testing.T) {
	p := simPlatform(t, domain.Recipes(), 92)
	plan, err := Preprocess(p, Query{Targets: []string{"Protein"}},
		crowd.Cents(4), crowd.Dollars(20), Options{})
	if err != nil {
		t.Fatal(err)
	}
	obj := p.Universe().NewObjects(rand.New(rand.NewSource(93)), 1)[0]
	qs, err := plan.Questions()
	if err != nil {
		t.Fatal(err)
	}

	rec := &recordingBatcher{Platform: p}
	batched, err := plan.EstimateObject(rec, obj)
	if err != nil {
		t.Fatal(err)
	}
	if rec.batchCalls != 1 {
		t.Fatalf("batcher platform saw %d exchanges, want 1", rec.batchCalls)
	}
	if !reflect.DeepEqual(rec.lastBatch, qs) {
		t.Fatalf("batch asked %v, want the plan's question set %v", rec.lastBatch, qs)
	}

	// One question per exchange must land on bit-identical estimates
	// (answers are memoized).
	direct, err := plan.EstimateObject(crowd.NewBatched(p, -1), obj)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(batched, direct) {
		t.Fatalf("batched estimates %v, per-attribute %v", batched, direct)
	}
}
