package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/crowd"
	"repro/internal/domain"
)

// acQuestion builds the test's canonical question for an object id.
func acQuestion(id int) crowd.ObjectValueQuestion {
	return crowd.ObjectValueQuestion{Object: &domain.Object{ID: id}, Attr: "Protein", N: 4}
}

// acAnswer is answer i of a question's (object, attribute) — the
// stand-in for the simulator's pure function of the key and the index.
func acAnswer(q crowd.ObjectValueQuestion, i int) float64 {
	return float64(q.Object.ID)*100 + float64(len(q.Attr)) + float64(i)/8
}

// acPrefix is the deterministic answer prefix a purchase of q returns,
// with workers when q asks for them.
func acPrefix(q crowd.ObjectValueQuestion) crowd.ValueAnswers {
	a := crowd.ValueAnswers{Values: make([]float64, q.N)}
	for i := range a.Values {
		a.Values[i] = acAnswer(q, i)
	}
	if q.Workers {
		a.Workers = make([]int, q.N)
	}
	return a
}

// acPay buys every question at its deterministic prefix.
func acPay(qs []crowd.ObjectValueQuestion) ([]crowd.ValueAnswers, error) {
	out := make([]crowd.ValueAnswers, len(qs))
	for i, q := range qs {
		out[i] = acPrefix(q)
	}
	return out, nil
}

// acCheck reports whether a is a correct answer set for q: at least N
// answers, each the key's deterministic value, with workers if asked.
func acCheck(a crowd.ValueAnswers, q crowd.ObjectValueQuestion) bool {
	if len(a.Values) < q.N || (q.Workers && len(a.Workers) != len(a.Values)) {
		return false
	}
	for i, v := range a.Values {
		if v != acAnswer(q, i) {
			return false
		}
	}
	return true
}

// acFill resolves one question through the cache with a deterministic
// pay, failing the test on error.
func acFill(t *testing.T, c *answerCache, q crowd.ObjectValueQuestion) crowd.ValueAnswers {
	t.Helper()
	answers, _, err := c.resolve("d", []crowd.ObjectValueQuestion{q}, acPay)
	if err != nil {
		t.Fatal(err)
	}
	return answers[0]
}

// acLookup reads the ready entry serving q without filling or blocking,
// bumping its recency like a hit.
func acLookup(c *answerCache, q crowd.ObjectValueQuestion) (crowd.ValueAnswers, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.lookupLocked(answerKey{domain: "d", attr: q.Attr, object: q.Object.ID})
	if !ok || e.elem == nil || !adaptive.Serves(e.answers, q) {
		return crowd.ValueAnswers{}, false
	}
	c.order.MoveToFront(e.elem)
	return e.answers, true
}

// TestAnswerCacheSingleFlight pins fill coalescing: concurrent resolves
// of the same question set trigger exactly one pay — the first locker
// claims every key in one pass, everyone else either hits or joins the
// in-flight fill (counting as a hit: they pay nothing).
func TestAnswerCacheSingleFlight(t *testing.T) {
	c := newAnswerCache(64, 0, time.Now)
	qs := []crowd.ObjectValueQuestion{acQuestion(1), acQuestion(2)}
	const workers = 8
	var payCalls atomic.Int64
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			answers, _, err := c.resolve("d", qs, func(miss []crowd.ObjectValueQuestion) ([]crowd.ValueAnswers, error) {
				payCalls.Add(1)
				time.Sleep(time.Millisecond) // widen the join window
				return acPay(miss)
			})
			if err != nil {
				t.Errorf("resolve: %v", err)
				return
			}
			for i, q := range qs {
				if !acCheck(answers[i], q) {
					t.Errorf("question %d: answers %v", i, answers[i])
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if n := payCalls.Load(); n != 1 {
		t.Fatalf("pay ran %d times, want 1 (single flight)", n)
	}
	st := c.stats()
	if st.Misses != int64(len(qs)) {
		t.Fatalf("misses = %d, want %d", st.Misses, len(qs))
	}
	// Every non-filling lookup was served without paying — a ready hit or
	// an in-flight join, and joins count as hits once the fill lands.
	if got, want := st.Hits, int64((workers-1)*len(qs)); got != want {
		t.Fatalf("hits = %d, want %d (waits %d)", got, want, st.InflightWaits)
	}
	if st.InflightWaits > st.Hits {
		t.Fatalf("waits %d exceed hits %d", st.InflightWaits, st.Hits)
	}
}

// TestAnswerCacheLRUEviction pins the eviction order: capacity 2, the
// recently-touched entry survives, the least recently used one goes.
func TestAnswerCacheLRUEviction(t *testing.T) {
	c := newAnswerCache(2, 0, time.Now)
	acFill(t, c, acQuestion(1))
	acFill(t, c, acQuestion(2))
	// Touch 1 so 2 becomes the LRU victim.
	if _, ok := acLookup(c, acQuestion(1)); !ok {
		t.Fatal("object 1 not cached")
	}
	acFill(t, c, acQuestion(3))
	if _, ok := acLookup(c, acQuestion(2)); ok {
		t.Fatal("LRU victim 2 survived")
	}
	if a, ok := acLookup(c, acQuestion(1)); !ok || !acCheck(a, acQuestion(1)) {
		t.Fatalf("object 1 = %v,%v after eviction", a, ok)
	}
	if a, ok := acLookup(c, acQuestion(3)); !ok || !acCheck(a, acQuestion(3)) {
		t.Fatalf("object 3 = %v,%v after fill", a, ok)
	}
	st := c.stats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("evictions %d size %d, want 1 and 2", st.Evictions, st.Size)
	}
}

// TestAnswerCacheTTLExpiry pins staleness bounding: entries older than
// the TTL are dropped at lookup and the next asker refills.
func TestAnswerCacheTTLExpiry(t *testing.T) {
	var nanos atomic.Int64
	clock := func() time.Time { return time.Unix(0, nanos.Load()) }
	c := newAnswerCache(8, time.Minute, clock)
	acFill(t, c, acQuestion(1))
	nanos.Store(int64(30 * time.Second))
	if _, ok := acLookup(c, acQuestion(1)); !ok {
		t.Fatal("entry expired before its TTL")
	}
	nanos.Store(int64(2 * time.Minute))
	if _, ok := acLookup(c, acQuestion(1)); ok {
		t.Fatal("entry survived past its TTL")
	}
	if st := c.stats(); st.Expirations != 1 || st.Size != 0 {
		t.Fatalf("expirations %d size %d, want 1 and 0", st.Expirations, st.Size)
	}
	// The next asker refills and the fresh entry serves again.
	if a := acFill(t, c, acQuestion(1)); !acCheck(a, acQuestion(1)) {
		t.Fatalf("refill = %v", a)
	}
	if _, ok := acLookup(c, acQuestion(1)); !ok {
		t.Fatal("refilled entry absent")
	}
}

// TestAnswerCacheFailedFillWaiterRetries pins the failure path: a waiter
// joined onto a fill whose filler errors must degrade to its own direct
// (uncached) purchase, and the failed entry must leave the map so later
// askers refill instead of hitting a poisoned key.
func TestAnswerCacheFailedFillWaiterRetries(t *testing.T) {
	c := newAnswerCache(64, 0, time.Now)
	qs := []crowd.ObjectValueQuestion{acQuestion(9)}
	fillerIn := make(chan struct{})
	release := make(chan struct{})
	fillerDone := make(chan error, 1)
	go func() {
		_, _, err := c.resolve("d", qs, func([]crowd.ObjectValueQuestion) ([]crowd.ValueAnswers, error) {
			close(fillerIn)
			<-release
			return nil, errors.New("crowd down")
		})
		fillerDone <- err
	}()
	<-fillerIn

	waiterDone := make(chan error, 1)
	var waiterAnswers []crowd.ValueAnswers
	var waiterReused []bool
	go func() {
		answers, reused, err := c.resolve("d", qs, acPay)
		waiterAnswers, waiterReused = answers, reused
		waiterDone <- err
	}()
	// The waiter must have registered as an in-flight join before the
	// filler is allowed to fail.
	deadline := time.Now().Add(5 * time.Second)
	for c.waits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never joined the in-flight fill")
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	if err := <-fillerDone; err == nil {
		t.Fatal("filler's error was swallowed")
	}
	if err := <-waiterDone; err != nil {
		t.Fatalf("waiter failed instead of retrying directly: %v", err)
	}
	if !acCheck(waiterAnswers[0], qs[0]) || waiterReused[0] {
		t.Fatalf("waiter retry: answers %v reused %v", waiterAnswers[0], waiterReused[0])
	}
	// The waiter's retry was uncached and the failed entry is gone, so the
	// key reads absent until someone refills.
	if _, ok := acLookup(c, acQuestion(9)); ok {
		t.Fatal("failed fill left an entry behind")
	}
	if a := acFill(t, c, acQuestion(9)); !acCheck(a, acQuestion(9)) {
		t.Fatalf("refill after failure = %v", a)
	}
}

// TestAnswerCachePrefix pins the prefix rule: a stored prefix serves
// every question it holds enough answers for, a longer question pays
// and replaces the entry, and a prefix without workers does not serve a
// question that asks for them.
func TestAnswerCachePrefix(t *testing.T) {
	c := newAnswerCache(8, 0, time.Now)
	ask := func(n int, workers bool) (crowd.ValueAnswers, bool, int) {
		t.Helper()
		q := acQuestion(1)
		q.N, q.Workers = n, workers
		bought := 0
		answers, reused, err := c.resolve("d", []crowd.ObjectValueQuestion{q}, func(miss []crowd.ObjectValueQuestion) ([]crowd.ValueAnswers, error) {
			bought += len(miss)
			return acPay(miss)
		})
		if err != nil {
			t.Fatal(err)
		}
		if !acCheck(answers[0], q) {
			t.Fatalf("N=%d workers=%v: answers %v", n, workers, answers[0])
		}
		return answers[0], reused[0], bought
	}
	if _, reused, bought := ask(4, false); reused || bought != 1 {
		t.Fatalf("cold question: reused %v bought %d", reused, bought)
	}
	// A shorter question is served the stored prefix.
	if a, reused, bought := ask(2, false); !reused || bought != 0 || len(a.Values) != 4 {
		t.Fatalf("shorter question: reused %v bought %d, %d answers", reused, bought, len(a.Values))
	}
	// A longer one pays, and its prefix replaces the entry.
	if _, reused, bought := ask(6, false); reused || bought != 1 {
		t.Fatalf("longer question: reused %v bought %d", reused, bought)
	}
	if a, reused, bought := ask(5, false); !reused || bought != 0 || len(a.Values) != 6 {
		t.Fatalf("after replacement: reused %v bought %d, %d answers", reused, bought, len(a.Values))
	}
	// Without workers stored, a question asking for them pays.
	if _, reused, bought := ask(3, true); reused || bought != 1 {
		t.Fatalf("workers question over a worker-less prefix: reused %v bought %d", reused, bought)
	}
	if _, reused, bought := ask(3, true); !reused || bought != 0 {
		t.Fatalf("workers question over a prefix with workers: reused %v bought %d", reused, bought)
	}
	if st := c.stats(); st.Size != 1 || st.Misses != 3 || st.Hits != 3 {
		t.Fatalf("size %d misses %d hits %d, want 1, 3 and 3", st.Size, st.Misses, st.Hits)
	}
}

// TestAnswerCacheHammer races 16 goroutines over a small key space with
// a tiny capacity, an expiring TTL on an advancing fake clock, failing
// fills, lookups, and questions of different lengths with and without
// workers, so prefixes keep replacing each other — every returned answer
// set must still be a correct prefix of the key's deterministic answers.
// Run under -race in CI's hammer job.
func TestAnswerCacheHammer(t *testing.T) {
	var nanos atomic.Int64
	clock := func() time.Time { return time.Unix(0, nanos.Load()) }
	c := newAnswerCache(8, 500*time.Nanosecond, clock)
	attrs := []string{"Protein", "Calories", "Fat"}
	const (
		workers = 16
		iters   = 300
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				nanos.Add(7)
				q := crowd.ObjectValueQuestion{
					Object:  &domain.Object{ID: (w + i) % 12},
					Attr:    attrs[(w*3+i)%len(attrs)],
					N:       2 + (i % 2),
					Workers: (w+i)%5 == 0,
				}
				switch i % 4 {
				case 0, 1:
					qs := []crowd.ObjectValueQuestion{q,
						{Object: &domain.Object{ID: (q.Object.ID + 1) % 12}, Attr: q.Attr, N: q.N}}
					fail := (w+i)%7 == 0
					answers, _, err := c.resolve("d", qs, func(miss []crowd.ObjectValueQuestion) ([]crowd.ValueAnswers, error) {
						if fail {
							return nil, fmt.Errorf("injected fill failure")
						}
						return acPay(miss)
					})
					if err != nil {
						continue // injected, or degraded onto an injected one
					}
					for j, a := range answers {
						if !acCheck(a, qs[j]) {
							t.Errorf("resolve %+v = %v", qs[j], a)
						}
					}
				case 2:
					if a, ok := acLookup(c, q); ok && !acCheck(a, q) {
						t.Errorf("lookup %+v = %v", q, a)
					}
				case 3:
					q.N += 2 // a longer question replaces a shorter prefix
					answers, _, err := c.resolve("d", []crowd.ObjectValueQuestion{q}, acPay)
					if err != nil || !acCheck(answers[0], q) {
						t.Errorf("longer resolve %+v: %v", q, err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.stats()
	if st.Size > st.Capacity {
		t.Fatalf("size %d above capacity %d", st.Size, st.Capacity)
	}
}

// serveRowsEqual compares two served row sets bit-for-bit.
func serveRowsEqual(t *testing.T, got, want []Row, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].ObjectID != want[i].ObjectID || got[i].SortKey != want[i].SortKey {
			t.Fatalf("%s row %d: %+v vs %+v", label, i, got[i], want[i])
		}
		for a, v := range want[i].Values {
			if got[i].Values[a] != v {
				t.Fatalf("%s row %d attr %q: %v vs %v", label, i, a, got[i].Values[a], v)
			}
		}
	}
}

// TestReuseEqualBillingPin is the tier-level billing contract: the first
// reuse session pays exactly the memo-less bill (cold bit-equality,
// ledger included), the second is served from cache — bit-equal rows at
// strictly lower OnlineSpent, with the saving accounted to the mill —
// and a tier without a cache ignores the flag entirely.
func TestReuseEqualBillingPin(t *testing.T) {
	const stmt = "SELECT Protein, Calories WHERE Dessert > 0.5"
	ctx := context.Background()

	plain := newReplicaTier(t, 1, 12, Config{})
	want, err := plain.Execute(ctx, Request{Statement: stmt})
	if err != nil {
		t.Fatal(err)
	}

	cached := newReplicaTier(t, 1, 12, Config{AnswerCache: 1024})
	cold, err := cached.Execute(ctx, Request{Statement: stmt, ReuseAnswers: true})
	if err != nil {
		t.Fatal(err)
	}
	serveRowsEqual(t, cold.Rows, want.Rows, "cold reuse")
	if !cold.Reuse || cold.AnswersReused != 0 {
		t.Fatalf("cold session: reuse %v, reused %d", cold.Reuse, cold.AnswersReused)
	}
	if cold.OnlineSpent != want.OnlineSpent {
		t.Fatalf("cold reuse spent %v, memo-less tier %v", cold.OnlineSpent, want.OnlineSpent)
	}

	warm, err := cached.Execute(ctx, Request{Statement: stmt, ReuseAnswers: true})
	if err != nil {
		t.Fatal(err)
	}
	serveRowsEqual(t, warm.Rows, want.Rows, "warm reuse")
	if warm.OnlineSpent >= cold.OnlineSpent {
		t.Fatalf("warm spend %v not below cold %v", warm.OnlineSpent, cold.OnlineSpent)
	}
	if warm.AnswersReused == 0 {
		t.Fatal("warm session reused nothing")
	}
	if int64(warm.OnlineSpent)+warm.SpendSavedMills != int64(want.OnlineSpent) {
		t.Fatalf("savings don't balance: %d + %d != %d",
			warm.OnlineSpent, warm.SpendSavedMills, want.OnlineSpent)
	}
	st := cached.Stats()
	if st.AnswerCache.Hits == 0 || st.AnswerCache.Size == 0 {
		t.Fatalf("answer cache stats empty: %+v", st.AnswerCache)
	}
	cs := st.Classes[DefaultClass]
	if cs.ReuseSessions != 2 || cs.AnswersReused != warm.AnswersReused || cs.SpendSavedMills != warm.SpendSavedMills {
		t.Fatalf("class reuse counters: %+v", cs)
	}

	// Cache-off tier: the flag is ignored and the session is bit-equal to
	// today's path.
	off := newReplicaTier(t, 1, 12, Config{})
	res, err := off.Execute(ctx, Request{Statement: stmt, ReuseAnswers: true})
	if err != nil {
		t.Fatal(err)
	}
	serveRowsEqual(t, res.Rows, want.Rows, "cache-off")
	if res.Reuse || res.OnlineSpent != want.OnlineSpent {
		t.Fatalf("cache-off session: reuse %v spent %v, want %v", res.Reuse, res.OnlineSpent, want.OnlineSpent)
	}
	if off.Stats().Classes[DefaultClass].ReuseSessions != 0 {
		t.Fatal("cache-off tier counted a reuse session")
	}
}

// TestShardedReuseMatchesUnsharded pins the cross-shard path: a
// scattered reuse session returns the same rows as the unsharded reuse
// session, and a repeat of it is served from the shared cache across
// every shard — strictly cheaper, reuse counters summed over shards.
func TestShardedReuseMatchesUnsharded(t *testing.T) {
	const stmt = "SELECT Protein WHERE Dessert > 0.5"
	ctx := context.Background()

	un := newReplicaTier(t, 1, 16, Config{AnswerCache: 1024})
	want, err := un.Execute(ctx, Request{Statement: stmt, ReuseAnswers: true})
	if err != nil {
		t.Fatal(err)
	}

	sh := newReplicaTier(t, 2, 16, Config{Shards: 4, Partition: PartitionHash, AnswerCache: 1024})
	cold, err := sh.Execute(ctx, Request{Statement: stmt, ReuseAnswers: true})
	if err != nil {
		t.Fatal(err)
	}
	serveRowsEqual(t, cold.Rows, want.Rows, "sharded cold")
	if !cold.Reuse || cold.AnswersReused != 0 {
		t.Fatalf("sharded cold session: reuse %v, reused %d", cold.Reuse, cold.AnswersReused)
	}
	warm, err := sh.Execute(ctx, Request{Statement: stmt, ReuseAnswers: true})
	if err != nil {
		t.Fatal(err)
	}
	serveRowsEqual(t, warm.Rows, want.Rows, "sharded warm")
	if warm.AnswersReused == 0 {
		t.Fatal("sharded warm session reused nothing")
	}
	if warm.OnlineSpent >= cold.OnlineSpent {
		t.Fatalf("sharded warm spend %v not below cold %v", warm.OnlineSpent, cold.OnlineSpent)
	}
	if int64(warm.OnlineSpent)+warm.SpendSavedMills != int64(cold.OnlineSpent) {
		t.Fatalf("sharded savings don't balance: %d + %d != %d",
			warm.OnlineSpent, warm.SpendSavedMills, cold.OnlineSpent)
	}
	cs := sh.Stats().Classes[DefaultClass]
	if cs.ReuseSessions != 2 || cs.AnswersReused != warm.AnswersReused {
		t.Fatalf("sharded class reuse counters: %+v", cs)
	}
}

// TestReuseConcurrentSessionsRace hammers one cached tier with 16
// concurrent reuse sessions over overlapping object windows: every
// session must return rows bit-equal to the memo-less tier's, whatever
// mix of fills, joins and hits it saw. Run under -race in CI.
func TestReuseConcurrentSessionsRace(t *testing.T) {
	const stmt = "SELECT Protein WHERE Dessert > 0.5"
	ctx := context.Background()
	plain := newReplicaTier(t, 1, 16, Config{})
	want, err := plain.Execute(ctx, Request{Statement: stmt})
	if err != nil {
		t.Fatal(err)
	}
	wantRow := make(map[int]Row, len(want.Rows))
	for _, r := range want.Rows {
		wantRow[r.ObjectID] = r
	}

	tier := newReplicaTier(t, 2, 16, Config{AnswerCache: 1024})
	// Warm the plan so concurrent sessions contend only on answers.
	if _, err := tier.Execute(ctx, Request{Statement: stmt, MaxObjects: 1}); err != nil {
		t.Fatal(err)
	}
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := tier.Execute(ctx, Request{Statement: stmt, ReuseAnswers: true})
			if err != nil {
				t.Errorf("session %d: %v", w, err)
				return
			}
			for _, r := range res.Rows {
				ref, ok := wantRow[r.ObjectID]
				if !ok {
					t.Errorf("session %d: unexpected row %d", w, r.ObjectID)
					continue
				}
				for a, v := range ref.Values {
					if r.Values[a] != v {
						t.Errorf("session %d row %d attr %q: %v vs %v", w, r.ObjectID, a, r.Values[a], v)
					}
				}
			}
			if len(res.Rows) != len(want.Rows) {
				t.Errorf("session %d: %d rows, want %d", w, len(res.Rows), len(want.Rows))
			}
		}(w)
	}
	wg.Wait()
	st := tier.Stats().AnswerCache
	if st.Hits+st.InflightWaits == 0 {
		t.Fatalf("no sharing happened across %d sessions: %+v", workers, st)
	}
}
