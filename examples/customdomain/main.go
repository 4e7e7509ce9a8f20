// Custom domain: build your own object universe (a used-car marketplace),
// run DisQ on it, and use the quality layer to audit the simulated workers
// — everything a downstream adopter would do to apply the library to a new
// problem.
//
//	go run ./examples/customdomain
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	disq "repro"
	"repro/internal/quality"
)

func main() {
	// A marketplace of used cars; the query attribute is the fair Price,
	// which crowd workers systematically misjudge (Distortion), while
	// simpler attributes (mileage bucket, body type) are easy.
	universe, err := disq.NewUniverse(disq.UniverseConfig{
		Name: "usedcars",
		Attributes: []disq.Attribute{
			{Name: "Price", Mean: 15000, Sigma: 7000, Noise: 6000, Distortion: 4500,
				Loadings: map[string]float64{"value": 0.75, "age": -0.45}},
			{Name: "Mileage", Mean: 90000, Sigma: 50000, Noise: 25000, Distortion: 9000,
				Loadings: map[string]float64{"age": 0.85}},
			{Name: "Model Year", Mean: 2015, Sigma: 5, Noise: 2, Distortion: 0.8,
				Loadings: map[string]float64{"age": -0.9}},
			{Name: "Looks New", Binary: true, Noise: 0.12, Distortion: 0.05,
				Loadings: map[string]float64{"age": -0.6, "value": 0.3}},
			{Name: "Luxury Brand", Binary: true, Noise: 0.06, Distortion: 0.02,
				Loadings: map[string]float64{"value": 0.75}},
			{Name: "Has Scratches", Binary: true, Noise: 0.1, Distortion: 0.04,
				Loadings: map[string]float64{"age": 0.5, "value": -0.2}},
			{Name: "Red Paint", Binary: true, Noise: 0.05, Distortion: 0.02,
				Loadings: map[string]float64{}},
		},
		Dismantle: map[string][]disq.DismantleAnswer{
			"Price": {
				{Name: "Luxury Brand", Weight: 14},
				{Name: "Model Year", Weight: 12},
				{Name: "Looks New", Weight: 8},
				{Name: "Mileage", Weight: 6},
				{Name: "Has Scratches", Weight: 4},
				{Name: "Red Paint", Weight: 6},
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	// A platform with some unfiltered spam workers.
	platform, err := disq.NewSimPlatform(universe, disq.SimOptions{
		Seed: 7, SpamRate: 0.15, FilterEfficiency: 0.5, PoolSize: 60,
	})
	if err != nil {
		log.Fatal(err)
	}

	plan, err := disq.Preprocess(platform, disq.Query{Targets: []string{"Price"}},
		disq.Cents(5), disq.Dollars(25), disq.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("derived:", plan.Formula("Price"))

	cars := universe.NewObjects(rand.New(rand.NewSource(9)), 50)
	var se float64
	for _, car := range cars {
		est, err := plan.EstimateObject(platform, car)
		if err != nil {
			log.Fatal(err)
		}
		truth, _ := universe.Truth(car, "Price")
		d := est["Price"] - truth
		se += d * d
	}
	fmt.Printf("price RMSE over %d cars: $%.0f (truth σ $7000)\n\n", len(cars), math.Sqrt(se/float64(len(cars))))

	// Quality audit: collect detailed answers and flag suspect workers.
	var cells []quality.Cell
	for _, car := range cars {
		det, err := platform.Values([]disq.ObjectValueQuestion{{Object: car, Attr: "Price", N: 6, Workers: true}})
		if err != nil {
			log.Fatal(err)
		}
		cells = append(cells, quality.Cell{Values: det[0].Values, Workers: det[0].Workers})
	}
	workers, err := quality.EstimateWorkers(cells, quality.Options{})
	if err != nil {
		log.Fatal(err)
	}
	suspects := quality.SpamSuspects(workers, 2.5)
	fmt.Printf("quality audit: scored %d workers, flagged %d spam suspects: %v\n",
		len(workers), len(suspects), suspects)
}
