package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// corruptEstimate flips the lowest bit of one estimate in the output,
// reporting whether the output had one to flip.
func corruptEstimate(out any) bool {
	switch v := out.(type) {
	case *serve.Result:
		for _, row := range v.Rows {
			for a, x := range row.Values {
				row.Values[a] = math.Float64frombits(math.Float64bits(x) ^ 1)
				return true
			}
		}
	case *core.Plan:
		for _, r := range v.Regressions {
			r.Intercept = math.Float64frombits(math.Float64bits(r.Intercept) ^ 1)
			return true
		}
	}
	return false
}

// corruptMill adds one mill to the output's crowd spend.
func corruptMill(out any) bool {
	switch v := out.(type) {
	case *serve.Result:
		v.OnlineSpent++
	case *core.Plan:
		v.PreprocessCost++
	}
	return true
}

// runBrief runs a workload for a short window, corrupting the first
// checked output corrupt can change (none when corrupt is nil).
func runBrief(t *testing.T, workload string, traced bool, corrupt func(any) bool) *result {
	t.Helper()
	o := options{seed: 7, seconds: 0.5}
	if corrupt != nil {
		var mu sync.Mutex
		done := false
		o.corrupt = func(out any) {
			mu.Lock()
			defer mu.Unlock()
			if !done {
				done = corrupt(out)
			}
		}
	}
	res, err := run(workload, o, traced, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestWorkloadsPassUnchanged(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			res := runBrief(t, name, false, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("clean run: correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
			}
		})
	}
}

func TestShapeWithoutWorkIsRejected(t *testing.T) {
	empty := shape{"empty", modeEager, serve.Request{Statement: "SELECT Protein WHERE Calories < -100000"}}
	_, err := setupServe(options{seed: 7, seconds: 0.5}, false, append(serveShapes[:len(serveShapes):len(serveShapes)], empty))
	if err == nil || !strings.Contains(err.Error(), "shape empty does no work") {
		t.Fatalf("setup with a shape that selects nothing: err %v, want it rejected", err)
	}
}

func TestCorruptedOutputCountsAsFailed(t *testing.T) {
	kinds := map[string]func(any) bool{"estimate": corruptEstimate, "mill": corruptMill}
	for name := range workloads {
		for kind, corrupt := range kinds {
			t.Run(name+"/"+kind, func(t *testing.T) {
				res := runBrief(t, name, false, corrupt)
				if res.Correct || res.Failed != 1 {
					t.Fatalf("one corrupted %s: correct %v, %d of %d failed, want exactly 1",
						kind, res.Correct, res.Failed, res.Attempted)
				}
			})
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that a run prints exactly the
// metrics BENCHMARK.json declares, with the declared units: the
// end-to-end ones untraced and the per-layer ones traced.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct{ Name, Unit string }
	var def struct {
		Workloads []struct{ Name string }
		EndToEnd  []decl `json:"end_to_end"`
		PerLayer  []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	for _, w := range def.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q the driver does not have", w.Name)
		}
	}
	for _, c := range []struct {
		traced bool
		want   []decl
	}{{false, def.EndToEnd}, {true, def.PerLayer}} {
		res := runBrief(t, "plan-build", c.traced, nil)
		if len(res.Metrics) != len(c.want) {
			t.Errorf("traced %v: %d metrics, BENCHMARK.json declares %d", c.traced, len(res.Metrics), len(c.want))
		}
		for _, d := range c.want {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("traced %v: metric %s = %+v, want unit %q", c.traced, d.Name, m, d.Unit)
			}
		}
	}
}
