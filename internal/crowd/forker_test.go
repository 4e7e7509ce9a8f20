package crowd

import (
	"math/rand"
	"testing"

	"repro/internal/domain"
)

// noFork wraps a platform that cannot fork, so the wrapper under test
// sees an unforkable inner platform.
type noFork struct{ Platform }

func (noFork) ForkPlatform() Platform { return nil }

// TestForkPlatformRewrapsWrappers pins the ForkPlatform method the sharded
// serving tier keys on: every platform wrapper forks by rewrapping a
// fork of its inner platform, the fork answers questions on a fresh
// ledger (nothing bills the parent), and wrapping an unforkable platform
// yields nil rather than a half-forked stack.
func TestForkPlatformRewrapsWrappers(t *testing.T) {
	u := domain.Recipes()
	objs := u.NewObjects(rand.New(rand.NewSource(5)), 2)
	attr := u.Attributes()[0]

	newSim := func() *SimPlatform {
		sim, err := NewSim(u, SimOptions{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		return sim
	}
	wrappers := []struct {
		name string
		wrap func(Platform) Platform
	}{
		{"sim", func(p Platform) Platform { return p }},
		{"faulty", func(p Platform) Platform { return NewFaulty(p, FaultyOptions{Seed: 9}) }},
		{"retry-over-faulty", func(p Platform) Platform {
			return NewRetry(NewFaulty(p, FaultyOptions{Seed: 9}), RetryOptions{})
		}},
		{"batched", func(p Platform) Platform { return NewBatched(p, 4) }},
		{"unbatched", func(p Platform) Platform { return NewBatched(p, -1) }},
	}
	for _, w := range wrappers {
		t.Run(w.name, func(t *testing.T) {
			parent := w.wrap(newSim())
			f1, f2 := parent.ForkPlatform(), parent.ForkPlatform()
			if f1 == nil || f2 == nil {
				t.Fatalf("%T fork over a forkable inner returned nil", parent)
			}
			// Sibling forks answer from the same memoized streams,
			// cursor zero each: bit-equal answers, independent ledgers.
			v1, err := Value(f1, objs[0], attr, 2)
			if err != nil {
				t.Fatal(err)
			}
			v2, err := Value(f2, objs[0], attr, 2)
			if err != nil {
				t.Fatal(err)
			}
			for i := range v1 {
				if v1[i] != v2[i] {
					t.Fatalf("sibling forks diverged: %v vs %v", v1, v2)
				}
			}
			if spent := parent.Ledger().Spent(); spent != 0 {
				t.Fatalf("fork billed the parent ledger: %v", spent)
			}
			if f1.Ledger().Spent() <= 0 {
				t.Fatal("fork's own ledger recorded no spend")
			}

			// The same wrapper over an unforkable inner cannot fork.
			if w.name == "sim" {
				return
			}
			blocked := w.wrap(noFork{newSim()})
			if f := blocked.ForkPlatform(); f != nil {
				t.Fatalf("%T forked over an unforkable inner: %T", blocked, f)
			}
		})
	}
}
