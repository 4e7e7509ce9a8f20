package crowdhttp

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/adaptive"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/serve"
)

// newQueryFixture builds a tier over n simulated backends (one shared
// universe) and serves its query API from an httptest server.
func newQueryFixture(t *testing.T, n int, cfg serve.Config) (*QueryClient, *httptest.Server) {
	t.Helper()
	u := domain.Recipes()
	objs := u.NewObjects(testRand(), 6)
	for i := 0; i < n; i++ {
		sim, err := crowd.NewSim(u, crowd.SimOptions{Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Backends = append(cfg.Backends, serve.Backend{Platform: sim})
	}
	cfg.Domain = "recipes"
	cfg.Objects = objs
	if cfg.DefaultBPrc == 0 {
		cfg.DefaultBPrc = crowd.Dollars(6)
	}
	tier, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewQueryServer(tier).Handler())
	t.Cleanup(ts.Close)
	return NewQueryClient(ts.URL, ts.Client()), ts
}

func TestQueryAPIRoundTrip(t *testing.T) {
	client, _ := newQueryFixture(t, 2, serve.Config{})
	ctx := context.Background()

	res, err := client.Execute(ctx, serve.Request{Statement: "SELECT Protein", MaxObjects: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (no WHERE filter)", len(res.Rows))
	}
	if res.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	for _, r := range res.Rows {
		if _, ok := r.Values["Protein"]; !ok {
			t.Fatalf("row %d missing Protein value: %v", r.ObjectID, r.Values)
		}
	}

	// The same statement again is a wire-visible cache hit, bit-equal rows.
	res2, err := client.Execute(ctx, serve.Request{Statement: "SELECT Protein", MaxObjects: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.CacheHit {
		t.Fatal("repeat query missed the plan cache")
	}
	for i, r := range res2.Rows {
		if r.ObjectID != res.Rows[i].ObjectID || r.Values["Protein"] != res.Rows[i].Values["Protein"] {
			t.Fatalf("repeat row %d diverged: %v vs %v", i, r, res.Rows[i])
		}
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("cache stats = %+v", st.Cache)
	}
	cs, ok := st.Classes[serve.DefaultClass]
	if !ok || cs.Sessions != 2 {
		t.Fatalf("class stats = %+v", st.Classes)
	}
}

func TestQueryAPIBudgetsCrossTheWire(t *testing.T) {
	client, _ := newQueryFixture(t, 1, serve.Config{})
	res, err := client.Execute(context.Background(), serve.Request{
		Statement:  "SELECT Protein",
		MaxObjects: 2,
		BObj:       crowd.Cents(5),
		BPrc:       crowd.Dollars(6),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PreprocessCost <= 0 || res.OnlineSpent <= 0 {
		t.Fatalf("costs not reported: %+v", res)
	}
}

// TestQueryAPIBoundsBudgets pins the query API's budget bound: a budget
// at maxBudgetMills executes, one above it is rejected with 400 before
// the tier runs a session.
func TestQueryAPIBoundsBudgets(t *testing.T) {
	client, ts := newQueryFixture(t, 1, serve.Config{})
	sessions := func() int64 {
		t.Helper()
		st, err := client.Stats(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var n int64
		for _, cs := range st.Classes {
			n += cs.Sessions
		}
		return n
	}
	cases := []struct {
		name       string
		bObj, bPrc int64
		want       int
	}{
		{"b_obj at bound", maxBudgetMills, 0, http.StatusOK},
		{"b_prc at bound", 0, maxBudgetMills, http.StatusOK},
		{"b_obj over bound", maxBudgetMills + 1, 0, http.StatusBadRequest},
		{"b_prc over bound", 0, maxBudgetMills + 1, http.StatusBadRequest},
		{"2^40 and 2^50 mills", 1 << 40, 1 << 50, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := sessions()
			body := fmt.Sprintf(`{"statement":"SELECT Protein","max_objects":2,"b_obj_mills":%d,"b_prc_mills":%d}`, c.bObj, c.bPrc)
			resp, err := http.Post(ts.URL+PathServeQuery, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.want)
			}
			if ran := sessions() - before; (ran == 1) != (c.want == http.StatusOK) {
				t.Fatalf("%d sessions ran for a %d answer", ran, resp.StatusCode)
			}
		})
	}
}

func TestQueryAPIParseErrorIsTerminal(t *testing.T) {
	client, _ := newQueryFixture(t, 1, serve.Config{})
	_, err := client.Execute(context.Background(), serve.Request{Statement: "SELECT"})
	if err == nil {
		t.Fatal("bad statement did not error")
	}
	if errors.Is(err, serve.ErrRejected) {
		t.Fatalf("parse error misreported as admission rejection: %v", err)
	}
	if !strings.Contains(err.Error(), "400") {
		t.Fatalf("err = %v, want terminal 400", err)
	}
}

func TestQueryAPIRejectionKeepsIdentity(t *testing.T) {
	client, _ := newQueryFixture(t, 1, serve.Config{
		Admission: map[string]serve.BucketConfig{
			"batch": {Rate: 0.0001, Burst: 1},
		},
	})
	ctx := context.Background()
	if _, err := client.Execute(ctx, serve.Request{Statement: "SELECT Protein", Class: "batch", MaxObjects: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := client.Execute(ctx, serve.Request{Statement: "SELECT Protein", Class: "batch", MaxObjects: 1})
	if !errors.Is(err, serve.ErrRejected) {
		t.Fatalf("err = %v, want serve.ErrRejected through the wire", err)
	}
}

func TestQueryClientDrivesLoadHarness(t *testing.T) {
	client, _ := newQueryFixture(t, 2, serve.Config{})
	rep, err := serve.RunLoad(client, serve.LoadConfig{
		Statements:  []string{"SELECT Protein"},
		Concurrency: 2,
		Duration:    300 * time.Millisecond,
		MaxObjects:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries == 0 || rep.Errors != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestQueryAPIShardsCrossTheWire runs the same statement unsharded and
// scattered over 4 shards through a remote sharded tier: the shard count
// must survive the round trip both ways (request override in, result
// out), the rows must be bit-equal (scatter happens tier-side, invisible
// on the wire), and the server stats must report the sharded session.
func TestQueryAPIShardsCrossTheWire(t *testing.T) {
	client, _ := newQueryFixture(t, 1, serve.Config{Shards: 4, Partition: serve.PartitionHash})
	ctx := context.Background()

	plain, err := client.Execute(ctx, serve.Request{Statement: "SELECT Protein", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Shards != 1 {
		t.Fatalf("Shards=1 override lost on the wire: result says %d", plain.Shards)
	}
	sharded, err := client.Execute(ctx, serve.Request{Statement: "SELECT Protein"})
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Shards != 4 {
		t.Fatalf("Result.Shards = %d, want the tier default 4", sharded.Shards)
	}
	if len(sharded.Rows) != len(plain.Rows) {
		t.Fatalf("row counts differ: sharded %d, unsharded %d", len(sharded.Rows), len(plain.Rows))
	}
	for i, r := range sharded.Rows {
		if r.ObjectID != plain.Rows[i].ObjectID || r.Values["Protein"] != plain.Rows[i].Values["Protein"] {
			t.Fatalf("sharded row %d diverged: %v vs %v", i, r, plain.Rows[i])
		}
	}
	if sharded.OnlineSpent != plain.OnlineSpent {
		t.Fatalf("sharded spend %v, unsharded %v", sharded.OnlineSpent, plain.OnlineSpent)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 4 || st.Partition != serve.PartitionHash {
		t.Fatalf("server stats shards/partition = %d/%q", st.Shards, st.Partition)
	}
	if got := st.Classes[serve.DefaultClass].ShardedSessions; got != 1 {
		t.Fatalf("remote ShardedSessions = %d, want 1", got)
	}
}

// TestQueryAPILazyTopKCrossesTheWire runs a lazy ordered session through
// the remote tier: the Lazy flag, the savings counters and each row's
// sort key must survive the round trip, and the per-class lazy counters
// must show up in the remote stats.
func TestQueryAPILazyTopKCrossesTheWire(t *testing.T) {
	client, _ := newQueryFixture(t, 1, serve.Config{})
	ctx := context.Background()

	res, err := client.Execute(ctx, serve.Request{
		Statement: "SELECT Calories ORDER BY Protein DESC LIMIT 3",
		Lazy:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Lazy {
		t.Fatal("Result.Lazy lost on the wire")
	}
	if res.QuestionsSkipped <= 0 {
		t.Fatalf("QuestionsSkipped = %d, want > 0 under the default lazy config", res.QuestionsSkipped)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].SortKey > res.Rows[i-1].SortKey {
			t.Fatalf("SortKey order lost on the wire: %+v", res.Rows)
		}
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cs := st.Classes[serve.DefaultClass]
	if cs.LazySessions != 1 {
		t.Fatalf("remote LazySessions = %d, want 1", cs.LazySessions)
	}
	if cs.QuestionsSkipped != res.QuestionsSkipped {
		t.Fatalf("remote QuestionsSkipped = %d, result reported %d", cs.QuestionsSkipped, res.QuestionsSkipped)
	}
}

// TestQueryAPIAdaptiveCrossesTheWire runs a fixed and an adaptive
// session through the remote tier and checks the flag, the savings and
// the per-class counters all survive the round trip.
func TestQueryAPIAdaptiveCrossesTheWire(t *testing.T) {
	// A roomier per-object budget gives every attribute enough answers
	// that the sequential test has room to stop early; stopping-only
	// tuning (no reallocation) makes the savings visible as spend.
	acfg := adaptive.Defaults()
	acfg.Weight, acfg.Reallocate = false, false
	client, _ := newQueryFixture(t, 1, serve.Config{
		DefaultBObj: crowd.Cents(8),
		Adaptive:    &acfg,
	})
	ctx := context.Background()

	fixed, err := client.Execute(ctx, serve.Request{Statement: "SELECT Protein"})
	if err != nil {
		t.Fatal(err)
	}
	adap, err := client.Execute(ctx, serve.Request{Statement: "SELECT Protein", Adaptive: true})
	if err != nil {
		t.Fatal(err)
	}
	if !adap.Adaptive {
		t.Fatal("Result.Adaptive lost on the wire")
	}
	if adap.QuestionsSaved <= 0 {
		t.Fatalf("QuestionsSaved = %d, want > 0", adap.QuestionsSaved)
	}
	if adap.OnlineSpent >= fixed.OnlineSpent {
		t.Fatalf("adaptive session spent %v, fixed %v", adap.OnlineSpent, fixed.OnlineSpent)
	}
	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Classes[serve.DefaultClass].AdaptiveSessions; got != 1 {
		t.Fatalf("remote AdaptiveSessions = %d, want 1", got)
	}
}

// TestQueryAPIComposedModesCrossTheWire posts one statement twice with
// adaptive, lazy and reuse all set: both sessions run (no mode refuses
// another), both results carry the three flags, and the second is served
// from the tier's answer cache — the same rows at lower spend.
func TestQueryAPIComposedModesCrossTheWire(t *testing.T) {
	_, ts := newQueryFixture(t, 1, serve.Config{AnswerCache: 1024})
	const body = `{"statement":"SELECT Protein WHERE Dessert > 0.5","adaptive":true,"lazy":true,"reuse":true}`
	post := func() serve.Result {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+PathServeQuery, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200", resp.StatusCode)
		}
		var res serve.Result
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		if !res.Adaptive || !res.Lazy || !res.Reuse {
			t.Fatalf("flags lost: adaptive %v lazy %v reuse %v", res.Adaptive, res.Lazy, res.Reuse)
		}
		return res
	}
	cold, warm := post(), post()
	if cold.OnlineSpent == 0 {
		t.Fatal("cold session spent nothing")
	}
	if warm.OnlineSpent >= cold.OnlineSpent {
		t.Fatalf("warm spend %v not below cold %v", warm.OnlineSpent, cold.OnlineSpent)
	}
	if !reflect.DeepEqual(warm.Rows, cold.Rows) {
		t.Fatalf("warm rows %+v, cold %+v", warm.Rows, cold.Rows)
	}
}
