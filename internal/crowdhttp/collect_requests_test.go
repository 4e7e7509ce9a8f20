package crowdhttp

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
)

// TestCollectRoundTripsBatched is the acceptance pin of the batched
// statistics-collection path: against a remote crowd, the collect phase
// must spend ~|A|·|streams| wire round trips on value questions (one
// multi-object batch per attribute × stream, plus constant per-attribute
// metadata), where the serial path spends ~N1·|A| — with bit-identical
// statistics, plans and total spend.
func TestCollectRoundTripsBatched(t *testing.T) {
	const seed = 41
	bPrc := crowd.Dollars(10) // single target → n1 = 80
	query := core.Query{Targets: []string{"Protein"}}

	type result struct {
		plan    *core.Plan
		collect core.PhaseStats
		paths   map[string]int64
	}
	run := func(strip bool) result {
		t.Helper()
		sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(sim)
		var mu sync.Mutex
		paths := make(map[string]int64)
		counting := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			paths[r.URL.Path]++
			mu.Unlock()
			srv.Handler().ServeHTTP(w, r)
		})
		ts := httptest.NewServer(counting)
		t.Cleanup(ts.Close)
		// MaxBatch above n1 so one stream's questions fit in one request.
		client := NewClientWithOptions(ts.URL, ts.Client(), Options{MaxBatch: 256})
		var p crowd.Platform = client
		if strip {
			p = crowd.NewBatched(client, -1) // one question per exchange
		}
		var collect core.PhaseStats
		opts := core.Options{Trace: func(e core.TraceEvent) {
			if e.Kind == core.TracePhase && e.Phase.Phase == core.PhaseCollect {
				collect = *e.Phase
			}
		}}
		plan, err := core.Preprocess(p, query, crowd.Cents(4), bPrc, opts)
		if err != nil {
			t.Fatal(err)
		}
		return result{plan: plan, collect: collect, paths: paths}
	}

	batched := run(false)
	serial := run(true)

	nAttrs := int64(len(batched.plan.Discovered))
	const n1 = 80
	if nAttrs < 2 {
		t.Fatalf("discovery found only %d attributes; the pin needs a real attribute set", nAttrs)
	}
	// Serial collect: one /v1/value round trip per (example × attribute).
	if serial.collect.Requests < n1*nAttrs {
		t.Fatalf("serial collect made %d requests, expected ≥ N1·|A| = %d",
			serial.collect.Requests, n1*nAttrs)
	}
	// Batched collect: one /v1/batch round trip per attribute × stream plus
	// at most three metadata fetches per attribute (canonical, meta,
	// pricing/examples warmup) — nothing proportional to N1.
	if limit := 4*nAttrs + 8; batched.collect.Requests > limit {
		t.Fatalf("batched collect made %d requests, want ≤ %d (|A| = %d)",
			batched.collect.Requests, limit, nAttrs)
	}
	if batched.collect.Requests*10 > serial.collect.Requests {
		t.Fatalf("batched collect (%d requests) is not ≥10× fewer round trips than serial (%d)",
			batched.collect.Requests, serial.collect.Requests)
	}
	// The batched run never touches the single-value endpoint at all; every
	// value question travels in a batch.
	if got := batched.paths[PathValue]; got != 0 {
		t.Fatalf("batched run made %d %s requests, want 0", got, PathValue)
	}
	if batched.paths[PathBatch] == 0 {
		t.Fatalf("batched run never used %s", PathBatch)
	}
	if serial.paths[PathBatch] != 0 {
		t.Fatalf("one-question-per-exchange run used %s", PathBatch)
	}

	// Bit-identical outputs: same questions, same answers, same money.
	if !reflect.DeepEqual(batched.plan.Discovered, serial.plan.Discovered) {
		t.Fatalf("discovered attributes diverged:\nbatched %v\nserial  %v",
			batched.plan.Discovered, serial.plan.Discovered)
	}
	if !reflect.DeepEqual(batched.plan.Stats, serial.plan.Stats) {
		t.Fatal("batched and serial statistics are not bit-identical")
	}
	if got, want := batched.plan.Formula("Protein"), serial.plan.Formula("Protein"); got != want {
		t.Fatalf("formula diverged:\nbatched %s\nserial  %s", got, want)
	}
	if batched.plan.PreprocessCost != serial.plan.PreprocessCost {
		t.Fatalf("spend diverged: batched %v, serial %v",
			batched.plan.PreprocessCost, serial.plan.PreprocessCost)
	}
	if batched.collect.Questions != serial.collect.Questions {
		t.Fatalf("collect questions diverged: batched %d, serial %d",
			batched.collect.Questions, serial.collect.Questions)
	}
}
