package crowdhttp

import (
	"math/rand"
	"sync"
	"testing"

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
