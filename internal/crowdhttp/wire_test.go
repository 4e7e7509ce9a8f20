package crowdhttp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"repro/internal/crowd"
	"repro/internal/domain"
)

// postRaw posts a literal body and returns the status and the decoded
// top-level JSON object of the response.
func postRaw(t *testing.T, url, path, body string) (int, map[string]json.RawMessage) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("%s: decoding response: %v", path, err)
	}
	return resp.StatusCode, m
}

// keysOf lists a JSON object's keys in sorted order.
func keysOf(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// field decodes one field of a JSON object.
func field(t *testing.T, m map[string]json.RawMessage, name string, v interface{}) {
	t.Helper()
	if err := json.Unmarshal(m[name], v); err != nil {
		t.Fatalf("field %q: %v", name, err)
	}
}

// TestQuestionEndpointsWire pins the single-question endpoints' wire:
// bodies without a kind field are accepted on /v1/value, /v1/examples,
// /v1/meta and /v1/canonical; each 200 payload keeps its own shape and
// carries the same answer as the equivalent /v1/batch item; and unknown
// objects, over-bound counts and transient platform failures map to 404,
// 400 and 503.
func TestQuestionEndpointsWire(t *testing.T) {
	_, srv, ts := newPair(t, 71)
	obj := srvPlatform(srv).Universe().NewObjects(testRand(), 1)[0]
	srv.RegisterObject(obj)

	bodies := map[string]string{
		PathValue:     fmt.Sprintf(`{"idempotency_key":"w-value","object_id":%d,"attribute":"Calories","n":3}`, obj.ID),
		PathExamples:  `{"idempotency_key":"w-examples","targets":["Protein"],"n":2}`,
		PathMeta:      `{"idempotency_key":"w-meta","attribute":"Is Dessert"}`,
		PathCanonical: `{"idempotency_key":"w-canonical","name":"Is Dessert"}`,
	}
	got := make(map[string]map[string]json.RawMessage, len(bodies))
	for path, body := range bodies {
		status, m := postRaw(t, ts.URL, path, body)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", path, status)
		}
		got[path] = m
	}
	br := postBatch(t, ts.URL, "w-batch", []batchItem{
		{Kind: "value", ObjectID: obj.ID, Attribute: "Calories", N: 3},
		{Kind: "examples", Targets: []string{"Protein"}, N: 2},
		{Kind: "meta", Attribute: "Is Dessert"},
		{Kind: "canonical", Name: "Is Dessert"},
	})
	for i, it := range br.Items {
		if it.Error != "" {
			t.Fatalf("batch item %d failed: %s", i, it.Error)
		}
	}

	wantKeys := map[string][]string{
		PathValue:     {"answers"},
		PathExamples:  {"examples"},
		PathMeta:      {"binary", "sigma"},
		PathCanonical: {"canonical"},
	}
	for path, want := range wantKeys {
		if keys := keysOf(got[path]); !reflect.DeepEqual(keys, want) {
			t.Fatalf("%s payload keys %v, want %v", path, keys, want)
		}
	}

	var answers []float64
	field(t, got[PathValue], "answers", &answers)
	if len(answers) != 3 || !reflect.DeepEqual(answers, br.Items[0].Answers) {
		t.Fatalf("%s answered %v, batch slot %v", PathValue, answers, br.Items[0].Answers)
	}

	var examples []map[string]json.RawMessage
	field(t, got[PathExamples], "examples", &examples)
	if len(examples) != 2 || len(br.Items[1].Examples) != 2 {
		t.Fatalf("%s returned %d examples, batch slot %d", PathExamples, len(examples), len(br.Items[1].Examples))
	}
	for i, ex := range examples {
		if keys := keysOf(ex); !reflect.DeepEqual(keys, []string{"object_id", "values"}) {
			t.Fatalf("example %d keys %v", i, keys)
		}
		var id int
		var values map[string]float64
		field(t, ex, "object_id", &id)
		field(t, ex, "values", &values)
		slot := br.Items[1].Examples[i]
		if id != slot.ObjectID || !reflect.DeepEqual(values, slot.Values) {
			t.Fatalf("example %d = (%d, %v), batch slot (%d, %v)", i, id, values, slot.ObjectID, slot.Values)
		}
	}

	var sigma float64
	var binary bool
	field(t, got[PathMeta], "sigma", &sigma)
	field(t, got[PathMeta], "binary", &binary)
	if meta := br.Items[2].Meta; meta == nil || meta.Sigma != sigma || meta.Binary != binary {
		t.Fatalf("%s = (sigma %v, binary %v), batch slot %+v", PathMeta, sigma, binary, meta)
	}

	var canonical string
	field(t, got[PathCanonical], "canonical", &canonical)
	if canonical != br.Items[3].Canonical || canonical == "" {
		t.Fatalf("%s = %q, batch slot %q", PathCanonical, canonical, br.Items[3].Canonical)
	}

	// Statuses: unknown object, count over the bound, transient failure.
	status, _ := postRaw(t, ts.URL, PathValue, `{"object_id":987654,"attribute":"Calories","n":1}`)
	if status != http.StatusNotFound {
		t.Fatalf("unknown object: status %d, want 404", status)
	}
	status, _ = postRaw(t, ts.URL, PathValue,
		fmt.Sprintf(`{"object_id":%d,"attribute":"Calories","n":%d}`, obj.ID, maxAnswers+1))
	if status != http.StatusBadRequest {
		t.Fatalf("n over bound: status %d, want 400", status)
	}

	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	faulty := NewServer(crowd.NewFaulty(sim, crowd.FaultyOptions{Seed: 1, FailRate: 1}))
	fobj := sim.Universe().NewObjects(testRand(), 1)[0]
	faulty.RegisterObject(fobj)
	fts := httptest.NewServer(faulty.Handler())
	defer fts.Close()
	status, _ = postRaw(t, fts.URL, PathValue, fmt.Sprintf(`{"object_id":%d,"attribute":"Calories","n":1}`, fobj.ID))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("transient failure: status %d, want 503", status)
	}
}
