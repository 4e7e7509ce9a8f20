package crowdhttp

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// TestServerBoundsWireInputs pins the server's input bounds: an answer or
// example count above maxAnswers, on any endpoint that takes one, and a
// body above maxBodyBytes are rejected with 400 before the platform runs.
func TestServerBoundsWireInputs(t *testing.T) {
	_, srv, ts := newPair(t, 61)
	sim := srvPlatform(srv)
	obj := sim.Universe().NewObjects(testRand(), 1)[0]
	srv.RegisterObject(obj)
	over := maxAnswers + 1

	cases := []struct {
		name string
		path string
		body string
		want int
	}{
		{"value within bound", PathValue, fmt.Sprintf(`{"object_id":%d,"attribute":"Calories","n":2}`, obj.ID), http.StatusOK},
		{"value n over bound", PathValue, fmt.Sprintf(`{"object_id":%d,"attribute":"Calories","n":%d}`, obj.ID, over), http.StatusBadRequest},
		{"value n 1e12", PathValue, fmt.Sprintf(`{"object_id":%d,"attribute":"Calories","n":1000000000000}`, obj.ID), http.StatusBadRequest},
		{"examples n over bound", PathExamples, fmt.Sprintf(`{"targets":["Protein"],"n":%d}`, over), http.StatusBadRequest},
		{"batch value item n over bound", PathBatch, fmt.Sprintf(`{"items":[{"kind":"value","object_id":%d,"attribute":"Calories","n":%d}]}`, obj.ID, over), http.StatusBadRequest},
		{"batch examples item n over bound", PathBatch, fmt.Sprintf(`{"items":[{"kind":"meta","attribute":"Calories"},{"kind":"examples","targets":["Protein"],"n":%d}]}`, over), http.StatusBadRequest},
		{"oversized value body", PathValue, `{"attribute":"` + strings.Repeat("x", maxBodyBytes) + `"}`, http.StatusBadRequest},
		{"oversized batch body", PathBatch, `{"items":[{"kind":"canonical","name":"` + strings.Repeat("x", maxBodyBytes) + `"}]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			spent := sim.Ledger().Spent()
			resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewBufferString(c.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != c.want {
				t.Fatalf("status %d, want %d", resp.StatusCode, c.want)
			}
			if c.want != http.StatusOK && sim.Ledger().Spent() != spent {
				t.Fatal("a rejected request reached the platform")
			}
		})
	}
}
