package crowdhttp

import (
	"math/rand"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
)

// TestWrappersKeepClientRequestCounts pins that platform wrappers forward
// the client's batching: evaluating k objects through a retry-over-faulty
// stack or a recorder costs exactly the HTTP requests the bare client
// spends, one batch per object plus metadata. A recorder also passes the
// client's wire counter through, so Preprocess can attribute requests to
// its phases.
func TestWrappersKeepClientRequestCounts(t *testing.T) {
	const k = 4
	plan := &core.Plan{
		Targets: []string{"Protein"},
		Budget: core.Assignment{Counts: map[string]int{
			"Calories": 2, "Sugar": 2, "Is Dessert": 1, "Has Meat": 3,
		}},
		Regressions: map[string]*core.Regression{"Protein": {Intercept: 1}},
	}
	requests := func(wrap func(crowd.Platform) crowd.Platform) int64 {
		t.Helper()
		sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 51})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(sim)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		client := NewClient(ts.URL, ts.Client())
		p := wrap(client)
		for _, o := range sim.Universe().NewObjects(rand.New(rand.NewSource(52)), k) {
			srv.RegisterObject(o)
			if _, err := plan.EstimateObject(p, domain.RefObject(o.ID)); err != nil {
				t.Fatal(err)
			}
		}
		return client.TransportStats().Requests
	}

	bare := requests(func(p crowd.Platform) crowd.Platform { return p })
	if bare == 0 {
		t.Fatal("bare client sent no requests")
	}
	wrappers := []struct {
		name string
		wrap func(crowd.Platform) crowd.Platform
	}{
		{"retry-over-faulty", func(p crowd.Platform) crowd.Platform {
			return crowd.NewRetry(crowd.NewFaulty(p, crowd.FaultyOptions{Seed: 1}), crowd.RetryOptions{})
		}},
		{"recorder", func(p crowd.Platform) crowd.Platform { return crowd.NewRecorder(p) }},
	}
	for _, w := range wrappers {
		if got := requests(w.wrap); got != bare {
			t.Errorf("%s: %d requests for %d objects, bare client %d", w.name, got, k, bare)
		}
	}

	client, _, _ := newPair(t, 53)
	var phases []core.PhaseStats
	_, err := core.Preprocess(crowd.NewRecorder(client), core.Query{Targets: []string{"Protein"}},
		crowd.Cents(4), crowd.Dollars(10), core.Options{Trace: func(e core.TraceEvent) {
			if e.Kind == core.TracePhase {
				phases = append(phases, *e.Phase)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, ph := range phases {
		total += ph.Requests
	}
	if total == 0 {
		t.Fatalf("phases over a recorded client report no requests: %+v", phases)
	}
}
