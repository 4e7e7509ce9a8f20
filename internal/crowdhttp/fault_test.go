package crowdhttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
)

// fastOptions keeps retry backoffs microscopic so fault tests hammer
// instead of sleeping.
func fastOptions(maxRetries int) Options {
	return Options{
		MaxRetries:  maxRetries,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
	}
}

// breakablePair builds a client/server pair with a proxy in front that
// answers 503 for the given paths while broken holds true.
func breakablePair(t *testing.T, seed int64, opts Options, brokenPaths ...string) (*Client, *Server, *atomic.Bool) {
	t.Helper()
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(sim)
	var broken atomic.Bool
	paths := make(map[string]bool, len(brokenPaths))
	for _, p := range brokenPaths {
		paths[p] = true
	}
	proxy := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if broken.Load() && paths[r.URL.Path] {
			writeError(w, http.StatusServiceUnavailable, errInjectedFault)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(proxy)
	t.Cleanup(ts.Close)
	return NewClientWithOptions(ts.URL, ts.Client(), opts), srv, &broken
}

// TestValueConcurrentSingleCharge is the double-charge regression test:
// two (here: eight) goroutines asking the same value question race
// through cache-check + charge + fetch, and the per-key single-flight
// lock must let exactly one of them pay.
func TestValueConcurrentSingleCharge(t *testing.T) {
	client, _, _ := newPair(t, 21)
	ex, err := client.Examples([]string{"Protein"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	base := client.Ledger().Spent()

	const workers = 8
	answers := make([][]float64, workers)
	errs := make([]error, workers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start.Wait()
			answers[w], errs[w] = crowd.Value(client, ex[0].Object, "Calories", 4)
		}(w)
	}
	start.Done()
	wg.Wait()
	for w := 0; w < workers; w++ {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		if !reflect.DeepEqual(answers[w], answers[0]) {
			t.Fatalf("worker %d got different answers: %v vs %v", w, answers[w], answers[0])
		}
	}
	if got, want := client.Ledger().Spent()-base, 4*crowd.Cents(0.4); got != want {
		t.Fatalf("%d concurrent callers charged %v, want a single charge of %v", workers, got, want)
	}
	if asked := client.Ledger().Asked(crowd.NumericValue); asked != 4 {
		t.Fatalf("asked %d numeric questions, want 4", asked)
	}
}

// TestFailedRequestReleasesReservation is the budget-leak regression
// test: every charging endpoint fails after the charge was placed, and
// Spent() must come back to exactly where it was.
func TestFailedRequestReleasesReservation(t *testing.T) {
	client, _, broken := breakablePair(t, 22, fastOptions(1),
		PathValue, PathDismantle, PathVerify, PathExamples)

	// Fetch an object (and warm pricing/meta) while the server is healthy.
	ex, err := client.Examples([]string{"Protein"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	spent := client.Ledger().Spent()

	broken.Store(true)
	if _, err := client.Dismantle("Protein"); err == nil {
		t.Fatal("expected transport failure")
	}
	if _, err := client.Verify("Has Meat", "Protein"); err == nil {
		t.Fatal("expected transport failure")
	}
	if _, err := client.Examples([]string{"Protein"}, 3); err == nil {
		t.Fatal("expected transport failure")
	}
	if _, err := crowd.Value(client, ex[0].Object, "Calories", 2); err == nil {
		t.Fatal("expected transport failure")
	}
	if got := client.Ledger().Spent(); got != spent {
		t.Fatalf("failed requests leaked budget: spent %v, want %v", got, spent)
	}
	for _, k := range []crowd.QuestionKind{crowd.Dismantling, crowd.Verification, crowd.NumericValue} {
		if n := client.Ledger().Asked(k); n != 0 {
			t.Fatalf("failed %v requests left %d questions on the books", k, n)
		}
	}

	// After the outage the same questions succeed and charge exactly once.
	broken.Store(false)
	if _, err := client.Dismantle("Protein"); err != nil {
		t.Fatal(err)
	}
	if _, err := crowd.Value(client, ex[0].Object, "Calories", 2); err != nil {
		t.Fatal(err)
	}
	want := spent + crowd.Cents(1.5) + 2*crowd.Cents(0.4)
	if got := client.Ledger().Spent(); got != want {
		t.Fatalf("post-recovery spend %v, want %v", got, want)
	}
}

// TestCanonicalTransientErrorsSurface is the swallowed-error regression
// test: a transient canonicalization failure must fail the calling
// question (instead of silently desynchronizing cache keys), and the
// interface-level raw-name fallback must not be cached.
func TestCanonicalTransientErrorsSurface(t *testing.T) {
	client, _, broken := breakablePair(t, 23, fastOptions(-1), PathCanonical)

	broken.Store(true)
	_, err := crowd.Value(client, domain.RefObject(1), "Calories", 1)
	if err == nil || !strings.Contains(err.Error(), "canonicalizing") {
		t.Fatalf("Value should surface the canonicalization failure, got %v", err)
	}
	if got := client.Canonical("Is Dessert"); got != "Is Dessert" {
		t.Fatalf("Canonical fallback = %q, want the raw name", got)
	}

	broken.Store(false)
	if got := client.Canonical("Is Dessert"); got != "Dessert" {
		t.Fatalf("Canonical after recovery = %q — the transient fallback was cached", got)
	}
}

// TestIdempotentReplayDoesNotAdvanceStreams drives the wire protocol
// directly: re-POSTing a dismantling question with the same idempotency
// key must replay the recorded answer without advancing the server's
// (order-dependent) dismantling stream.
func TestIdempotentReplayDoesNotAdvanceStreams(t *testing.T) {
	const seed = 24
	_, _, ts := newPair(t, seed)
	post := func(key string) string {
		t.Helper()
		body := fmt.Sprintf(`{"idempotency_key":%q,"attribute":"Protein"}`, key)
		resp, err := http.Post(ts.URL+PathDismantle, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var dr dismantleResponse
		if err := json.NewDecoder(resp.Body).Decode(&dr); err != nil {
			t.Fatal(err)
		}
		return dr.Answer
	}

	// A same-seed sim driven directly is the reference stream.
	ref, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	want1, _ := ref.Dismantle("Protein")
	want2, _ := ref.Dismantle("Protein")

	got1 := post("k1")
	replay := post("k1")
	got2 := post("k2")
	if got1 != want1 {
		t.Fatalf("first answer %q, want %q", got1, want1)
	}
	if replay != got1 {
		t.Fatalf("replay answered %q, original %q", replay, got1)
	}
	if got2 != want2 {
		t.Fatalf("answer after replay %q, want %q — the replay advanced the stream", got2, want2)
	}
}

// TestE2EPreprocessUnderFaults is the acceptance test of the
// fault-tolerance layer: the full DisQ offline + online phases run
// against a server injecting ≥10% transient faults at both the request
// level (503s, dropped responses) and the platform level (pre-execution
// errors, short batches), and must converge to exactly the fault-free
// plan, estimates and ledger total.
func TestE2EPreprocessUnderFaults(t *testing.T) {
	const seed = 77
	bPrc := crowd.Dollars(20)
	query := core.Query{Targets: []string{"Protein"}}

	run := func(client *Client, sim *crowd.SimPlatform, srv *Server) (*core.Plan, map[string]float64) {
		t.Helper()
		plan, err := core.Preprocess(client, query, crowd.Cents(4), bPrc, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		obj := sim.Universe().NewObjects(testRand(), 1)[0]
		srv.RegisterObject(obj)
		est, err := plan.EstimateObject(client, domain.RefObject(obj.ID))
		if err != nil {
			t.Fatal(err)
		}
		return plan, est
	}

	// Fault-free reference run.
	cleanSim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cleanSrv := NewServer(cleanSim)
	cleanTS := httptest.NewServer(cleanSrv.Handler())
	defer cleanTS.Close()
	clean := NewClient(cleanTS.URL, cleanTS.Client())
	wantPlan, wantEst := run(clean, cleanSim, cleanSrv)

	// Fault-injected run: same platform seed, flaky everything.
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	flaky := crowd.NewFaulty(sim, crowd.FaultyOptions{Seed: 5, FailRate: 0.05, ShortRate: 0.05})
	srv := NewFaultyServer(flaky, FaultOptions{Seed: 6, FailRate: 0.1, DropRate: 0.05})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClientWithOptions(ts.URL, ts.Client(), fastOptions(10))
	gotPlan, gotEst := run(client, sim, srv)

	if srv.InjectedFaults() == 0 {
		t.Fatal("the faulty server injected nothing")
	}
	if st := client.TransportStats(); st.Retries == 0 || st.TransientErrors == 0 {
		t.Fatalf("the transport never retried: %+v", st)
	}
	if !reflect.DeepEqual(gotPlan.Discovered, wantPlan.Discovered) {
		t.Fatalf("discovered attributes diverged:\nfaulty     %v\nfault-free %v",
			gotPlan.Discovered, wantPlan.Discovered)
	}
	if gotPlan.PreprocessCost != wantPlan.PreprocessCost {
		t.Fatalf("preprocessing cost diverged: %v vs %v", gotPlan.PreprocessCost, wantPlan.PreprocessCost)
	}
	if got, want := gotPlan.Formula("Protein"), wantPlan.Formula("Protein"); got != want {
		t.Fatalf("formula diverged:\nfaulty     %s\nfault-free %s", got, want)
	}
	if !reflect.DeepEqual(gotEst, wantEst) {
		t.Fatalf("online estimates diverged: %v vs %v", gotEst, wantEst)
	}
	if got, want := client.Ledger().Spent(), clean.Ledger().Spent(); got != want {
		t.Fatalf("fault-injected run spent %v, fault-free %v — retries leaked or double-charged", got, want)
	}
}

// TestConcurrentHammerUnderFaults pounds a doubly-faulty deployment from
// many goroutines (for -race) and checks the ledger landed on exactly
// the deterministic cost of the distinct questions asked: retries,
// replays and short-batch re-asks must never move it.
func TestConcurrentHammerUnderFaults(t *testing.T) {
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	flaky := crowd.NewFaulty(sim, crowd.FaultyOptions{Seed: 2, FailRate: 0.1, ShortRate: 0.15})
	srv := NewFaultyServer(flaky, FaultOptions{Seed: 3, FailRate: 0.15, DropRate: 0.1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := NewClientWithOptions(ts.URL, ts.Client(), fastOptions(12))

	ex, err := client.Examples([]string{"Protein"}, 4)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const verifiesPerWorker = 5
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Every worker asks all four value questions: duplicates must
			// coalesce into a single charge via the per-key lock.
			for _, e := range ex {
				if _, err := crowd.Value(client, e.Object, "Calories", 3); err != nil {
					errs[w] = err
					return
				}
			}
			for i := 0; i < verifiesPerWorker; i++ {
				if _, err := client.Verify("Has Meat", "Protein"); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	want := 4*crowd.Cents(5) + // examples
		4*3*crowd.Cents(0.4) + // 4 distinct value questions, 3 answers each
		workers*verifiesPerWorker*crowd.Cents(0.1) // every verify is a fresh question
	if got := client.Ledger().Spent(); got != want {
		t.Fatalf("hammer spent %v, want exactly %v", got, want)
	}
	if srv.InjectedFaults() == 0 {
		t.Fatal("hammer saw no injected faults")
	}
}
