package crowd

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/domain"
)

// transcript runs a fixed mixed question script against a platform and
// renders every answer (and the final ledger state) with full float
// precision, so two platforms can be compared for bit-identical behavior.
func transcript(t *testing.T, p Platform, u *domain.Universe, objs []*domain.Object) string {
	t.Helper()
	var b strings.Builder
	attrs := u.Attributes()[:3]
	for _, o := range objs {
		for _, a := range attrs {
			vals, err := Value(p, o, a, 3)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "value obj%d %q: %v\n", o.ID, a, floatBits(vals))
		}
	}
	for i := 0; i < 5; i++ {
		ans, err := p.Dismantle(attrs[0])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "dismantle #%d: %q\n", i, ans)
	}
	for i := 0; i < 5; i++ {
		yes, err := p.Verify(attrs[1], attrs[0])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "verify #%d: %v\n", i, yes)
	}
	exs, err := p.Examples([]string{attrs[0], attrs[1]}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, ex := range exs {
		fmt.Fprintf(&b, "example #%d obj%d: %v %v\n", i, ex.Object.ID,
			math.Float64bits(ex.Values[attrs[0]]), math.Float64bits(ex.Values[attrs[1]]))
		// Value questions about simulator-created example objects exercise
		// the provenance-keyed answer pools.
		vals, err := Value(p, ex.Object, attrs[2], 2)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "example-value #%d: %v\n", i, floatBits(vals))
	}
	fmt.Fprintf(&b, "spent=%d asked=%d/%d/%d/%d/%d\n", p.Ledger().Spent(),
		p.Ledger().Asked(BinaryValue), p.Ledger().Asked(NumericValue),
		p.Ledger().Asked(Dismantling), p.Ledger().Asked(Verification),
		p.Ledger().Asked(ExampleQuestion))
	return b.String()
}

func floatBits(vals []float64) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		out[i] = math.Float64bits(v)
	}
	return out
}

// freshTwin builds a platform over a fresh copy of the domain with the
// same external objects — the rebuild-per-point shape a fork must be
// bit-identical to.
func freshTwin(t *testing.T, dom string, opts SimOptions) (*SimPlatform, *domain.Universe, []*domain.Object) {
	t.Helper()
	u := domain.Registry()[dom]()
	p, err := NewSim(u, opts)
	if err != nil {
		t.Fatal(err)
	}
	objs := u.NewObjects(rand.New(rand.NewSource(321)), 3)
	return p, u, objs
}

// TestForkMatchesFreshPlatform pins the fork contract: a fork taken from a
// snapshot answers every question bit-identically to a freshly built
// platform with the same seed — including the ids of example objects it
// materializes and the final ledger tally — even when the parent (or an
// earlier fork) already consumed the same streams.
func TestForkMatchesFreshPlatform(t *testing.T) {
	opts := SimOptions{Seed: 4242, SpamRate: 0.1, FilterEfficiency: 0.5, IrrelevantRate: 0.05}
	refP, refU, refObjs := freshTwin(t, "pictures", opts)
	want := transcript(t, refP, refU, refObjs)

	p, u, objs := freshTwin(t, "pictures", opts)
	snap := p.Snapshot()
	for fork := 0; fork < 3; fork++ {
		f := snap.Fork()
		if got := transcript(t, f, u, objs); got != want {
			t.Fatalf("fork %d diverged from the fresh platform\ngot:\n%s\nwant:\n%s", fork, got, want)
		}
	}
	// A fork of a fork still replays the fresh behavior.
	if got := transcript(t, snap.Fork().Fork(), u, objs); got != want {
		t.Fatalf("fork-of-fork diverged\ngot:\n%s\nwant:\n%s", got, want)
	}
	// And the parent itself, asked afterwards, is unaffected by its forks.
	if got := transcript(t, p, u, objs); got != want {
		t.Fatalf("parent after forks diverged\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestForkIndependentLedgers verifies forks never double-charge or share
// spend: each fork pays for every answer it consumes on its own ledger,
// even when the answer was already simulated by a sibling.
func TestForkIndependentLedgers(t *testing.T) {
	p, u, objs := freshTwin(t, "recipes", SimOptions{Seed: 99})
	snap := p.Snapshot()
	f1, f2 := snap.Fork(), snap.Fork()
	if _, err := f1.Value(objs[0], u.Attributes()[0], 5); err != nil {
		t.Fatal(err)
	}
	if f2.Ledger().Spent() != 0 {
		t.Fatalf("sibling fork charged %v without asking anything", f2.Ledger().Spent())
	}
	if p.Ledger().Spent() != 0 {
		t.Fatalf("parent charged %v by a fork's questions", p.Ledger().Spent())
	}
	if _, err := f2.Value(objs[0], u.Attributes()[0], 5); err != nil {
		t.Fatal(err)
	}
	if f1.Ledger().Spent() != f2.Ledger().Spent() {
		t.Fatalf("forks disagree on the price of identical questions: %v vs %v",
			f1.Ledger().Spent(), f2.Ledger().Spent())
	}
}

// TestForkBudgetExhaustionParity pins the failure path: a fork with a
// budget limit runs out at exactly the same question, with exactly the
// same error, as a freshly built limited platform — cached answers must
// not stretch a fork's budget.
func TestForkBudgetExhaustionParity(t *testing.T) {
	opts := SimOptions{Seed: 7, BudgetLimit: 20 * Mill}
	refP, refU, refObjs := freshTwin(t, "pictures", opts)
	attr := refU.Attributes()[0]
	_, refErr := refP.Value(refObjs[0], attr, 100)
	if !errors.Is(refErr, ErrBudgetExhausted) {
		t.Fatalf("reference platform did not exhaust: %v", refErr)
	}
	asked := func(l *Ledger) int { return l.Asked(NumericValue) + l.Asked(BinaryValue) }
	refPartial, err := refP.Value(refObjs[0], attr, asked(refP.Ledger()))
	if err != nil {
		t.Fatal(err)
	}

	p, _, objs := freshTwin(t, "pictures", opts)
	// Burn the whole stream into the shared store from an unlimited view,
	// then check a limited fork still stops at its own wall.
	rich := p.Snapshot().Fork()
	rich.SetLedger(NewLedger(0))
	if _, err := rich.Value(objs[0], attr, 100); err != nil {
		t.Fatal(err)
	}
	f := p.Snapshot().Fork()
	_, gotErr := f.Value(objs[0], attr, 100)
	if gotErr == nil || gotErr.Error() != refErr.Error() {
		t.Fatalf("fork exhaustion error %q, fresh platform %q", gotErr, refErr)
	}
	if f.Ledger().Spent() != refP.Ledger().Spent() {
		t.Fatalf("fork spent %v at exhaustion, fresh platform %v", f.Ledger().Spent(), refP.Ledger().Spent())
	}
	gotPartial, err := f.Value(objs[0], attr, asked(f.Ledger()))
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(floatBits(gotPartial)) != fmt.Sprint(floatBits(refPartial)) {
		t.Fatalf("partial answers diverged: %v vs %v", gotPartial, refPartial)
	}
}

// TestConcurrentForkHammer runs many forks concurrently over one snapshot
// (under -race in CI), each consuming overlapping answer streams, and
// checks every fork saw the byte-identical transcript. Concurrent pool
// extension in the shared store must neither race nor leak one fork's
// cursor state into another.
func TestConcurrentForkHammer(t *testing.T) {
	opts := SimOptions{Seed: 1234, SpamRate: 0.2, FilterEfficiency: 0.3}
	refP, refU, refObjs := freshTwin(t, "recipes", opts)
	want := transcript(t, refP, refU, refObjs)

	p, u, objs := freshTwin(t, "recipes", opts)
	snap := p.Snapshot()
	const forks = 16
	got := make([]string, forks)
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = transcript(t, snap.Fork(), u, objs)
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("concurrent fork %d diverged\ngot:\n%s\nwant:\n%s", i, g, want)
		}
	}
}

// TestFaultWrappedForkConvergence checks the wrapper contract on forks: a
// fork wrapped in fault injection plus retries (the PlatformConfig
// composition the harness applies) converges to the same answers and the
// same base-ledger spend as a bare fork — injected faults are
// pre-execution, so recovery replays onto the identical stream.
func TestFaultWrappedForkConvergence(t *testing.T) {
	p, u, objs := freshTwin(t, "pictures", SimOptions{Seed: 55})
	snap := p.Snapshot()
	clean := snap.Fork()
	want := transcript(t, clean, u, objs)

	f := snap.Fork()
	wrapped := NewRetry(NewFaulty(f, FaultyOptions{Seed: 77, FailRate: 0.3, ShortRate: 0.2}), RetryOptions{})
	if got := transcript(t, wrapped, u, objs); got != want {
		t.Fatalf("fault-wrapped fork diverged from the clean fork\ngot:\n%s\nwant:\n%s", got, want)
	}
	if f.Ledger().Spent() != clean.Ledger().Spent() {
		t.Fatalf("fault-wrapped fork spent %v, clean fork %v", f.Ledger().Spent(), clean.Ledger().Spent())
	}
}
