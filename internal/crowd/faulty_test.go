package crowd

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/domain"
)

func faultySim(t *testing.T, seed int64) *SimPlatform {
	t.Helper()
	p, err := NewSim(domain.Recipes(), SimOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runFaultScenario drives a fixed mixed-question sequence and returns a
// digest of every answer, so two platforms can be compared for exact
// behavioral equality.
func runFaultScenario(t *testing.T, p Platform) ([]float64, string) {
	t.Helper()
	ex, err := p.Examples([]string{"Protein"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	var nums []float64
	for _, e := range ex {
		ans, err := Value(p, e.Object, "Calories", 3)
		if err != nil {
			t.Fatal(err)
		}
		nums = append(nums, ans...)
	}
	var script []string
	for i := 0; i < 4; i++ {
		d, err := p.Dismantle("Protein")
		if err != nil {
			t.Fatal(err)
		}
		yes, err := p.Verify(d, "Protein")
		if err != nil {
			t.Fatal(err)
		}
		script = append(script, d, fmt.Sprint(yes))
	}
	return nums, strings.Join(script, "|")
}

func TestFaultyInjectionIsSeeded(t *testing.T) {
	// The injection schedule is a pure function of the fault seed and the
	// question index: same seed → same failures, different seed → a
	// different pattern (with 100 questions at 30% the patterns cannot
	// collide by accident).
	pattern := func(seed int64) string {
		f := NewFaulty(faultySim(t, 7), FaultyOptions{Seed: seed, FailRate: 0.3})
		var b strings.Builder
		for i := 0; i < 100; i++ {
			if _, err := f.Verify("Has Meat", "Protein"); err != nil {
				if !errors.Is(err, ErrTransient) {
					t.Fatalf("injected error not transient: %v", err)
				}
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		return b.String()
	}
	a, b, c := pattern(11), pattern(11), pattern(12)
	if a != b {
		t.Fatal("same fault seed produced different injection schedules")
	}
	if a == c {
		t.Fatal("different fault seeds produced identical injection schedules")
	}
	if !strings.Contains(a, "1") || !strings.Contains(a, "0") {
		t.Fatalf("degenerate schedule %q at rate 0.3", a)
	}
}

// TestFaultyRetryConvergesToFaultFree is the core fault-tolerance
// contract: a run through FaultyPlatform + RetryPlatform must produce the
// same answers AND the same ledger total as a fault-free run of the same
// platform seed, because injected errors are pre-execution (no stream
// cursor advances, nothing is charged) and short batches re-read cached
// answers for free.
func TestFaultyRetryConvergesToFaultFree(t *testing.T) {
	clean := faultySim(t, 42)
	wantNums, wantScript := runFaultScenario(t, clean)

	sim := faultySim(t, 42)
	flaky := NewRetry(
		NewFaulty(sim, FaultyOptions{Seed: 9, FailRate: 0.25, ShortRate: 0.5, Latency: time.Microsecond}),
		RetryOptions{MaxRetries: 12, Backoff: time.Microsecond, BackoffMax: 2 * time.Microsecond},
	)
	gotNums, gotScript := runFaultScenario(t, flaky)

	if len(gotNums) != len(wantNums) {
		t.Fatalf("answer counts differ: %d vs %d", len(gotNums), len(wantNums))
	}
	for i := range wantNums {
		if gotNums[i] != wantNums[i] {
			t.Fatalf("answer %d: faulty %v, fault-free %v", i, gotNums[i], wantNums[i])
		}
	}
	if gotScript != wantScript {
		t.Fatalf("dismantle/verify diverged:\nfaulty     %q\nfault-free %q", gotScript, wantScript)
	}
	if got, want := sim.Ledger().Spent(), clean.Ledger().Spent(); got != want {
		t.Fatalf("fault-injected run spent %v, fault-free %v", got, want)
	}
	st := flaky.Stats()
	if st.Questions == 0 || st.InjectedErrors == 0 || st.InjectedShorts == 0 || st.Retries == 0 {
		t.Fatalf("fault counters not populated: %+v", st)
	}
	if st.Retries < st.InjectedErrors {
		t.Fatalf("every injected error needs a retry: %+v", st)
	}
}

func TestFaultyFailAfterExhaustsRetries(t *testing.T) {
	sim := faultySim(t, 3)
	f := NewRetry(
		NewFaulty(sim, FaultyOptions{Seed: 1, FailAfter: 2}),
		RetryOptions{MaxRetries: 2, Backoff: time.Microsecond, BackoffMax: time.Microsecond},
	)
	for i := 0; i < 2; i++ {
		if _, err := f.Verify("Has Meat", "Protein"); err != nil {
			t.Fatalf("question %d within FailAfter: %v", i+1, err)
		}
	}
	spent := sim.Ledger().Spent()
	_, err := f.Verify("Has Meat", "Protein")
	if err == nil || !errors.Is(err, ErrTransient) {
		t.Fatalf("expected transient retry exhaustion, got %v", err)
	}
	if !strings.Contains(err.Error(), "retry budget") {
		t.Fatalf("error should name the retry budget: %v", err)
	}
	if sim.Ledger().Spent() != spent {
		t.Fatal("failed question changed the ledger")
	}
	if st := f.Stats(); st.Retries != 2 {
		t.Fatalf("retries = %d, want the full budget of 2", st.Retries)
	}
}

func TestRetryPassesTerminalErrorsThrough(t *testing.T) {
	sim := faultySim(t, 4)
	sim.SetLedger(NewLedger(1 * Mill)) // nothing is affordable
	f := NewRetry(sim, RetryOptions{MaxRetries: 3, Backoff: time.Microsecond})
	_, err := f.Dismantle("Protein")
	if !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("expected budget error, got %v", err)
	}
	if st := f.Stats(); st.Retries != 0 {
		t.Fatalf("terminal error was retried %d times", st.Retries)
	}
}
