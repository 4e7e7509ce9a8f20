package crowdhttp

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/crowd"
)

// TestServerConcurrentQuestions hammers one server from many client
// goroutines mixing every question type, so -race exercises the server's
// RWMutex object registry and the client's split caches (atomic ledger,
// answer-cache mutex, read-mostly metadata locks) under real HTTP
// concurrency. A second client/server pair with the same seed is then
// queried sequentially and must return identical value answers: transport
// concurrency may not perturb the simulated streams.
func TestServerConcurrentQuestions(t *testing.T) {
	client, _, _ := newPair(t, 99)

	// Serve some objects first so value questions have targets.
	ex, err := client.Examples([]string{"Protein", "Calories"}, 6)
	if err != nil {
		t.Fatal(err)
	}

	const workers = 12
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for it := 0; it < 30; it++ {
				switch it % 5 {
				case 0:
					o := ex[rng.Intn(len(ex))].Object
					if _, err := crowd.Value(client, o, "Calories", 1+rng.Intn(4)); err != nil {
						errs[w] = err
						return
					}
				case 1:
					if _, err := client.Dismantle("Protein"); err != nil {
						errs[w] = err
						return
					}
				case 2:
					if _, err := client.Verify("Has Meat", "Protein"); err != nil {
						errs[w] = err
						return
					}
				case 3:
					if _, err := client.Examples([]string{"Protein", "Calories"}, 1+rng.Intn(6)); err != nil {
						errs[w] = err
						return
					}
				default:
					if client.Canonical("Is Dessert") != "Dessert" {
						errs[w] = errString("canonicalization broke under concurrency")
						return
					}
					client.Sigma("Calories")
					client.IsBinary("Dessert")
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

	// A same-seed pair queried sequentially sees the same universe, the
	// same example objects and therefore the same value streams.
	seqClient, _, _ := newPair(t, 99)
	seqEx, err := seqClient.Examples([]string{"Protein", "Calories"}, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range ex {
		if e.Object.ID != seqEx[i].Object.ID {
			t.Fatalf("example %d: object id %d vs sequential %d", i, e.Object.ID, seqEx[i].Object.ID)
		}
		got, err := crowd.Value(client, e.Object, "Calories", 4)
		if err != nil {
			t.Fatal(err)
		}
		want, err := crowd.Value(seqClient, seqEx[i].Object, "Calories", 4)
		if err != nil {
			t.Fatal(err)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("obj %d: concurrent-HTTP answers %v, sequential %v", e.Object.ID, got, want)
			}
		}
	}
}

type errString string

func (e errString) Error() string { return string(e) }

// TestValuesConcurrentMixedBatchSizes races lone questions (fetched over
// /v1/value) against multi-question batches (coalesced into /v1/batch)
// over overlapping question keys, including two spellings of one
// attribute. Every caller must get the server's answers, every answer
// must be charged exactly once, and no caller may deadlock on the key
// locks both paths share.
func TestValuesConcurrentMixedBatchSizes(t *testing.T) {
	client, srv, _ := newPair(t, 91)
	sim := srvPlatform(srv)
	objs := sim.Universe().NewObjects(testRand(), 3)
	for _, o := range objs {
		srv.RegisterObject(o)
	}
	attrs := []string{"Calories", "Sugar", "Is Dessert", "Dessert"}

	// Each worker's calls are drawn up front, so the charge every key
	// must cost (its longest prefix, once) is known before the race.
	const workers, calls = 12, 20
	plans := make([][][]crowd.ObjectValueQuestion, workers)
	type key struct {
		id   int
		attr string
	}
	longest := make(map[key]int)
	for w := range plans {
		rng := rand.New(rand.NewSource(int64(w)))
		for c := 0; c < calls; c++ {
			size := 1
			if c%2 == 1 {
				size = 2 + rng.Intn(3)
			}
			qs := make([]crowd.ObjectValueQuestion, size)
			for i := range qs {
				o := objs[rng.Intn(len(objs))]
				q := crowd.ObjectValueQuestion{Object: o, Attr: attrs[rng.Intn(len(attrs))], N: 1 + rng.Intn(4)}
				qs[i] = q
				k := key{o.ID, sim.Canonical(q.Attr)}
				if q.N > longest[k] {
					longest[k] = q.N
				}
			}
			plans[w] = append(plans[w], qs)
		}
	}

	answers := make([][][]crowd.ValueAnswers, workers)
	errs := make([]error, workers)
	var start, wg sync.WaitGroup
	start.Add(1)
	for w := range plans {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start.Wait()
			for _, qs := range plans[w] {
				ans, err := client.Values(qs)
				if err != nil {
					errs[w] = err
					return
				}
				answers[w] = append(answers[w], ans)
			}
		}(w)
	}
	start.Done()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent Values callers deadlocked")
	}

	for w := range plans {
		if errs[w] != nil {
			t.Fatalf("worker %d: %v", w, errs[w])
		}
		for c, qs := range plans[w] {
			for i, q := range qs {
				want, err := crowd.Value(sim, q.Object, q.Attr, q.N)
				if err != nil {
					t.Fatal(err)
				}
				if got := answers[w][c][i].Values; !reflect.DeepEqual(got, want) {
					t.Fatalf("worker %d call %d: %s on object %d answered %v, want %v", w, c, q.Attr, q.Object.ID, got, want)
				}
			}
		}
	}
	if st := srv.Stats(); st.Requests[PathValue] == 0 || st.Requests[PathBatch] == 0 {
		t.Fatalf("requests %v: the race must exercise both question paths", st.Requests)
	}
	pricing := client.Pricing()
	var want crowd.Cost
	var numeric, binary int
	for k, n := range longest {
		if sim.IsBinary(k.attr) {
			want += crowd.Cost(n) * pricing.BinaryValue
			binary += n
		} else {
			want += crowd.Cost(n) * pricing.NumericValue
			numeric += n
		}
	}
	l := client.Ledger()
	if l.Spent() != want || l.Asked(crowd.NumericValue) != numeric || l.Asked(crowd.BinaryValue) != binary {
		t.Fatalf("charged %v for %d numeric + %d binary answers, want %v for %d + %d",
			l.Spent(), l.Asked(crowd.NumericValue), l.Asked(crowd.BinaryValue), want, numeric, binary)
	}
}
