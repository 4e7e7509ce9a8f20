package disq_test

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	disq "repro"
)

func TestFacadeQueryLayer(t *testing.T) {
	platform, err := disq.NewSimPlatform(disq.Recipes(), disq.SimOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	st, err := disq.ParseQuery("SELECT Protein WHERE Has Meat > 0.5")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := disq.Preprocess(platform, st.Query(), disq.Cents(4), disq.Dollars(25), disq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := disq.NewQueryEngine(platform, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	objs := platform.Universe().NewObjects(rand.New(rand.NewSource(22)), 20)
	rows, err := engine.Execute(st, objs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) == len(objs) {
		t.Fatalf("filter kept %d/%d", len(rows), len(objs))
	}
}

func TestFacadePlanPersistence(t *testing.T) {
	platform, err := disq.NewSimPlatform(disq.Recipes(), disq.SimOptions{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := disq.Preprocess(platform, disq.Query{Targets: []string{"Protein"}},
		disq.Cents(4), disq.Dollars(15), disq.Options{DisableDismantling: true})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plan.json")
	if err := plan.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := disq.LoadPlan(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Formula("Protein") != plan.Formula("Protein") {
		t.Fatal("plan changed across save/load")
	}
}

func TestFacadeRemotePlatform(t *testing.T) {
	backend, err := disq.NewSimPlatform(disq.Recipes(), disq.SimOptions{Seed: 24})
	if err != nil {
		t.Fatal(err)
	}
	server := disq.NewCrowdServer(backend)
	ts := httptest.NewServer(server.Handler())
	defer ts.Close()
	client := disq.NewCrowdClient(ts.URL, ts.Client())
	// Platform interface satisfied end to end.
	var _ disq.Platform = client
	ex, err := client.Examples([]string{"Protein"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Values([]disq.ObjectValueQuestion{{Object: disq.RefObject(ex[0].Object.ID), Attr: "Calories", N: 2}}); err != nil {
		t.Fatal(err)
	}
	// nil http client works too.
	_ = disq.NewCrowdClient(ts.URL, (*http.Client)(nil))
}

func TestFacadeAdvisor(t *testing.T) {
	if testing.Short() {
		t.Skip("advisor runs multiple preprocessing phases")
	}
	seed := int64(25)
	factory := func() (disq.Platform, error) {
		seed++
		return disq.NewSimPlatform(disq.Recipes(), disq.SimOptions{Seed: seed})
	}
	splits, err := disq.AdviseBudgetSplit(factory, disq.Query{Targets: []string{"Protein"}},
		disq.Dollars(50), 300, []float64{0.4, 0.6}, disq.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(splits) == 0 {
		t.Fatal("no splits")
	}
	if splits[0].Plan == nil {
		t.Fatal("nil plan in recommendation")
	}
}

func TestFacadeRecorderAndTrace(t *testing.T) {
	backend, err := disq.NewSimPlatform(disq.Recipes(), disq.SimOptions{Seed: 26})
	if err != nil {
		t.Fatal(err)
	}
	rec := disq.NewRecorder(backend)
	var events int
	_, err = disq.Preprocess(rec, disq.Query{Targets: []string{"Protein"}},
		disq.Cents(2), disq.Dollars(12),
		disq.Options{Trace: func(disq.TraceEvent) { events++ }})
	if err != nil {
		t.Fatal(err)
	}
	if events == 0 {
		t.Fatal("no trace events through the facade")
	}
	if rec.Table().Len() == 0 {
		t.Fatal("recorder captured nothing")
	}
}
