// Command perfbench is the repository's benchmark. It builds one
// workload's inputs from a seed, drives the public serving,
// preprocessing, query and crowd APIs in a closed loop with one client
// per processor, checks the measured outputs against independent
// references computed in the same run (every output on serve-hot and
// plan-build, a seeded sample on serve-fresh), and prints one JSON result
// line last:
//
//	bash perfbench/run.sh --workload serve-hot --seed 1 --seconds 10 --trace 0
//
// The workloads are serve-hot, serve-fresh and plan-build; BENCHMARK.json
// records why each exists. A run measures for --seconds, or until
// serve-fresh has used its fixed supply of never-touched windows. With
// --trace 0 the result carries the end-to-end metrics. With --trace 1 the
// run measures the workload once untraced and once traced, probes each
// layer from outside, and the result carries the per-layer metrics
// instead. Lines before the result start with "#" and record the host
// and every metric in readable form.
//
// The process exits non-zero when any output differs from its reference.
// `go test .` in this directory shows that the checks catch a corrupted
// output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupReps is how many times a run builds its workload; setup_s is the
// median, and the last build is the one measured.
const setupReps = 3

// tailQ is the latency quantile latency_tail_ms reports. Every run has
// at least ten samples beyond it. On a shared two-processor host the p99
// of serve-hot's ~0.1 ms sessions moved by 40-80% between runs of the
// same code, following the host's load rather than the program, so the
// gated tail is p90 and p99 is printed beside it.
const tailQ = 0.9

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options carries what a workload's setup needs from the command line.
type options struct {
	seed    int64
	seconds float64
	// corrupt, when set, receives each checked output (a *serve.Result
	// or a *core.Plan) just before it is compared with its reference.
	// Tests use it to show that the check catches a wrong output.
	corrupt func(any)
}

// env is one workload, set up and ready to run operations.
type env interface {
	// op runs operation i; the loop times the call. The returned
	// outcome's verify, when non-nil, compares the output with its
	// reference and runs outside the timed span.
	op(i int, tr *tracer) (outcome, error)
	// opLimit is how many operations the whole run may use (0 = as many
	// as the time allows).
	opLimit() int
	// weightedErr is the paper's mean weighted error of the plans the
	// workload serves or builds, on a fixed held-out object set.
	weightedErr() float64
	// traceWindow starts a traced window; the function it returns
	// reports the workload's per-layer counters over the window, given
	// the window's operation count.
	traceWindow() func(tr *tracer, ops int64) map[string]float64
}

// outcome is what one operation leaves for the loop.
type outcome struct {
	mills  int64
	verify func() error
}

var workloads = map[string]func(options) (env, error){
	"serve-hot":   func(o options) (env, error) { return setupServe(o, false, serveShapes) },
	"serve-fresh": func(o options) (env, error) { return setupServe(o, true, serveShapes) },
	"plan-build":  func(o options) (env, error) { return setupBuild(o) },
}

func main() {
	workload := flag.String("workload", "", "serve-hot, serve-fresh or plan-build")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	res, err := run(*workload, options{seed: *seed, seconds: *seconds}, *trace == 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it and assembles the result. Readable
// lines go to log.
func run(name string, o options, traced bool, log io.Writer) (*result, error) {
	setup, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	host, err := json.Marshal(hostFingerprint())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "# host %s\n", host)

	var e env
	setups := make([]float64, 0, setupReps)
	for range setupReps {
		// Drop the previous build first, so each one starts from the
		// same heap.
		e = nil
		runtime.GC()
		start := time.Now()
		if e, err = setup(o); err != nil {
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	runtime.GC()
	heap := readUint("/gc/heap/live:bytes")

	window := time.Duration(o.seconds * float64(time.Second))
	res := &result{Metrics: make(map[string]metric)}
	add := func(name string, v float64, unit string) {
		res.Metrics[name] = metric{Value: v, Unit: unit}
	}
	var m loopStats
	if !traced {
		m = runLoop(e, 0, e.opLimit(), window, nil)
		add("setup_s", median(setups), "s")
		add("setup_heap_mb", float64(heap)/(1<<20), "MiB")
		add("ops_per_s", m.opsPerSec(), "1/s")
		add("latency_p50_ms", m.quantile(0.5)*1e3, "ms")
		add("latency_tail_ms", m.quantile(tailQ)*1e3, "ms")
		fmt.Fprintf(log, "# latency_tail_ms is p%g over %d ops; p99 is %.4f ms\n",
			tailQ*100, len(m.lat), m.quantile(0.99)*1e3)
		add("crowd_mills_per_op", m.perOp(float64(m.mills)), "mills")
		add("alloc_kb_per_op", m.perOp(float64(m.allocBytes))/1024, "KiB")
		add("weighted_err", e.weightedErr(), "1")
	} else {
		// Two halves of the window: untraced first, then traced, so the
		// difference is the cost of tracing.
		half := e.opLimit() / 2
		plain := runLoop(e, 0, half, window/2, nil)
		tr := newTracer()
		report := e.traceWindow()
		m = runLoop(e, half, half, window/2, tr)
		layers := report(tr, m.ops)
		probes, err := runProbes(o.seed)
		if err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
		for _, part := range []map[string]float64{layers, probes, runtimeLayer(m)} {
			for k, v := range part {
				add(k, v, layerUnit(k))
			}
		}
		add("trace.ops_per_s_delta", plain.opsPerSec()-m.opsPerSec(), "1/s")
		m.ops += plain.ops
		m.failed += plain.failed
		m.failures = append(plain.failures, m.failures...)
	}
	res.Attempted = m.ops
	res.Failed = m.failed
	res.Correct = m.failed == 0 && m.ops > 0

	fmt.Fprintf(log, "# workload %s seed %d trace %v: %d ops, %d failed (failed_frac %.6f)\n",
		name, o.seed, traced, m.ops, m.failed, float64(m.failed)/float64(max(m.ops, 1)))
	if !traced {
		fmt.Fprintf(log, "# setup_s samples %v\n", setups)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(log, "# %-40s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, msg := range m.failures {
		fmt.Fprintln(log, "# FAILED", msg)
	}
	return res, nil
}

// layerUnit derives a per-layer metric's unit from its name suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_us") || strings.Contains(name, "_us."):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_b"):
		return "B"
	case strings.HasSuffix(name, "_per_kop"):
		return "1/kop"
	case strings.HasSuffix(name, "_per_op") || strings.HasSuffix(name, "_per_batch"):
		return "count"
	default:
		return "ratio"
	}
}

// hostInfo is the host fingerprint every run records, so that figures
// are only ever compared with figures from the same kind of host.
type hostInfo struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	CPUModel   string `json:"cpu_model"`
}

func hostFingerprint() hostInfo {
	return hostInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CPUModel:   cpuModel(),
	}
}

// cpuModel reads the processor name Linux reports ("unknown" elsewhere).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
