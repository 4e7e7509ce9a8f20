package quality

import (
	"math/rand"
	"testing"

	"repro/internal/crowd"
	"repro/internal/domain"
)

// synthCells builds cells where workers 0..good-1 answer near the truth
// and workers good..good+bad-1 answer uniformly at random.
func synthCells(rng *rand.Rand, nCells, good, bad, answersPerCell int) []Cell {
	cells := make([]Cell, nCells)
	for i := range cells {
		truth := 10 * rng.NormFloat64()
		c := Cell{}
		for j := 0; j < answersPerCell; j++ {
			w := rng.Intn(good + bad)
			var v float64
			if w < good {
				v = truth + 0.5*rng.NormFloat64()
			} else {
				v = 30 * (rng.Float64() - 0.5) // uninformative
			}
			c.Values = append(c.Values, v)
			c.Workers = append(c.Workers, w)
		}
		cells[i] = c
	}
	return cells
}

func TestEstimateWorkersSeparatesGoodFromBad(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const good, bad = 20, 5
	cells := synthCells(rng, 400, good, bad, 6)
	ws, err := EstimateWorkers(cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every bad worker's variance clearly exceeds every good worker's.
	var worstGood, bestBad float64
	bestBad = 1e18
	for w, s := range ws {
		if w < good {
			if s.Variance > worstGood {
				worstGood = s.Variance
			}
		} else if s.Variance < bestBad {
			bestBad = s.Variance
		}
	}
	if bestBad <= worstGood {
		t.Fatalf("no separation: worst good %v vs best bad %v", worstGood, bestBad)
	}
	// SpamSuspects finds exactly the bad workers (with answer minimums met).
	suspects := SpamSuspects(ws, 3)
	for _, s := range suspects {
		if s < good {
			t.Fatalf("good worker %d flagged", s)
		}
	}
	flagged := make(map[int]bool)
	for _, s := range suspects {
		flagged[s] = true
	}
	missed := 0
	for w := good; w < good+bad; w++ {
		if _, scored := ws[w]; scored && !flagged[w] {
			missed++
		}
	}
	if missed > 1 {
		t.Fatalf("missed %d spam workers", missed)
	}
}

func TestEstimateWorkersValidation(t *testing.T) {
	if _, err := EstimateWorkers(nil, Options{}); err == nil {
		t.Fatal("no cells should error")
	}
	if _, err := EstimateWorkers([]Cell{{Values: []float64{1}, Workers: []int{0, 1}}}, Options{}); err == nil {
		t.Fatal("misaligned cell should error")
	}
	if _, err := EstimateWorkers([]Cell{{Values: []float64{1}, Workers: []int{0}}}, Options{}); err == nil {
		t.Fatal("single-answer cell should error")
	}
	// Workers below the answer minimum are excluded entirely.
	cells := []Cell{
		{Values: []float64{1, 2}, Workers: []int{0, 1}},
		{Values: []float64{1, 2}, Workers: []int{2, 3}},
	}
	if _, err := EstimateWorkers(cells, Options{MinAnswers: 3}); err == nil {
		t.Fatal("expected error when nobody reaches the minimum")
	}
}

func TestConsensusShift(t *testing.T) {
	// One spammy answer: downweighting it moves the consensus.
	cell := Cell{Values: []float64{10, 10.2, 9.8, 30}, Workers: []int{0, 1, 2, 3}}
	ws := map[int]WorkerStats{
		0: {Weight: 10}, 1: {Weight: 10}, 2: {Weight: 10}, 3: {Weight: 0.01},
	}
	shift, err := ConsensusShift(cell, ws)
	if err != nil {
		t.Fatal(err)
	}
	if shift < 0.3 {
		t.Fatalf("shift %v, want substantial", shift)
	}
	if _, err := ConsensusShift(Cell{}, ws); err == nil {
		t.Fatal("bad cell should error")
	}
}

// TestQualityOnSimulatedSpam closes the loop with the crowd simulator:
// collect detailed answers from a spam-heavy platform and verify the
// quality module flags a meaningful share of unfiltered spam workers.
func TestQualityOnSimulatedSpam(t *testing.T) {
	p, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{
		Seed: 5, SpamRate: 0.25, FilterEfficiency: 0, PoolSize: 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := p.Universe()
	objs := u.NewObjects(rand.New(rand.NewSource(6)), 150)
	var cells []Cell
	for _, o := range objs {
		det, err := p.Values([]crowd.ObjectValueQuestion{{Object: o, Attr: "Calories", N: 8, Workers: true}})
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, Cell{Values: det[0].Values, Workers: det[0].Workers})
	}
	ws, err := EstimateWorkers(cells, Options{})
	if err != nil {
		t.Fatal(err)
	}
	suspects := SpamSuspects(ws, 2.5)
	if len(suspects) == 0 {
		t.Fatal("spam-heavy platform but no suspects flagged")
	}
	// With SpamRate 0.25 over 40 workers, ~10 are spammers; flagging more
	// than a third of the pool would mean terrible precision.
	if len(suspects) > 14 {
		t.Fatalf("flagged %d of 40 workers — precision too low", len(suspects))
	}
}
