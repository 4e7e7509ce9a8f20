package crowdhttp

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/serve"
)

// FuzzBatchRequest decodes and executes /v1/batch bodies against a small
// simulated crowd server: whatever the body, the server must not panic
// and must answer 200 (per-item errors travel inside the response) or
// 4xx.
func FuzzBatchRequest(f *testing.F) {
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 71})
	if err != nil {
		f.Fatal(err)
	}
	srv := NewServer(sim)
	obj := sim.Universe().NewObjects(testRand(), 1)[0]
	srv.RegisterObject(obj)
	h := srv.Handler()

	// The batches the endpoint tests send.
	seeds := []batchRequest{
		{Items: []batchItem{
			{Kind: "value", ObjectID: obj.ID, Attribute: "Calories", N: 3},
			{Kind: "meta", Attribute: "Is Dessert"},
			{Kind: "canonical", Name: "Is Dessert"},
			{Kind: "examples", Targets: []string{"Protein"}, N: 2},
			{Kind: "bogus"},
		}},
		{Items: []batchItem{{Kind: "value", ObjectID: obj.ID, Attribute: "Calories", N: 2}, {Kind: "meta", Attribute: "Calories"}}},
		{Items: []batchItem{}},
		{Items: []batchItem{{Kind: "value", ObjectID: obj.ID, Attribute: "Calories", N: maxAnswers + 1}}},
	}
	seeds[1].IdempotencyKey = "sub-1"
	for _, req := range seeds {
		body, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"items":[{"kind":"value","object_id":-1,"attribute":"","n":-5}]}`))
	f.Add([]byte(`{"items":`))

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathBatch, bytes.NewReader(body)))
		if rec.Code >= 400 && rec.Code < 500 {
			return
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		var resp batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("undecodable 200 response %q", rec.Body)
		}
		// A keyed body may replay whatever was first answered under its
		// key; an unkeyed one executes and answers each of its items.
		var key idemKey
		if json.Unmarshal(body, &key); key.IdempotencyKey != "" {
			return
		}
		var req batchRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("200 for an undecodable body %q", body)
		}
		if len(resp.Items) != len(req.Items) {
			t.Fatalf("%d results for the %d items of %q", len(resp.Items), len(req.Items), body)
		}
	})
}

// FuzzQueryWire decodes query-API request bodies: whatever the body, the
// decoder must not panic and must either reject it with a 4xx or accept
// a request whose wire form decodes back to itself.
func FuzzQueryWire(f *testing.F) {
	// The requests the query-API tests send.
	for _, req := range []serve.Request{
		{Statement: "SELECT Protein", MaxObjects: 3},
		{Statement: "SELECT Protein", MaxObjects: 2, BObj: crowd.Cents(5), BPrc: crowd.Dollars(6)},
		{Statement: "SELECT"},
		{Statement: "SELECT Protein", Class: "batch", MaxObjects: 1},
		{Statement: "SELECT Protein", Shards: 1},
		{Statement: "SELECT Calories ORDER BY Protein DESC LIMIT 3", Lazy: true},
		{Statement: "SELECT Protein", Adaptive: true},
		{Statement: "SELECT Protein WHERE Calories < 400", ObjectIDs: []int{3, 1}, ReuseAnswers: true},
		{Statement: "SELECT Protein WHERE Dessert > 0.5", Adaptive: true, Lazy: true, ReuseAnswers: true},
	} {
		body, err := json.Marshal(wireOf(req))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Add([]byte(`{"statement":`))

	decoded := func(body []byte) (serve.Request, *httptest.ResponseRecorder, bool) {
		rec := httptest.NewRecorder()
		req, ok := decodeQuery(rec, httptest.NewRequest(http.MethodPost, PathServeQuery, bytes.NewReader(body)))
		return req, rec, ok
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, rec, ok := decoded(body)
		if !ok {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("rejected body %q with status %d", body, rec.Code)
			}
			return
		}
		wire, err := json.Marshal(wireOf(req))
		if err != nil {
			t.Fatal(err)
		}
		again, _, ok := decoded(wire)
		if !ok {
			t.Fatalf("wire form %q of an accepted body does not decode", wire)
		}
		if rewire, _ := json.Marshal(wireOf(again)); !bytes.Equal(rewire, wire) {
			t.Fatalf("request does not survive the wire: %q → %q", wire, rewire)
		}
	})
}
