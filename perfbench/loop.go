package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// maxFailureNotes bounds how many mismatch messages a run keeps.
const maxFailureNotes = 8

// loopStats is what one measured window produced.
type loopStats struct {
	ops, failed int64
	mills       int64
	elapsed     time.Duration
	lat         []float64 // op latencies in seconds, sorted
	allocBytes  uint64
	gcCycles    uint64
	gcPauses    *metrics.Float64Histogram // GC stop-the-world pauses in the window
	schedLat    *metrics.Float64Histogram // goroutine run-queue waits in the window
	failures    []string
}

// clients is the closed loop's width: one client per processor the
// runtime schedules on, as an analyst waits for each reply before
// sending the next request.
func clients() int { return max(1, min(runtime.NumCPU(), runtime.GOMAXPROCS(0))) }

// runLoop runs operations from, from+1, ... on clients() goroutines until
// the window ends or limit operations (0 = no limit) have started. Each
// client starts its next operation only after its previous one finished
// and was checked.
func runLoop(e env, from, limit int, window time.Duration, tr *tracer) loopStats {
	var next atomic.Int64
	next.Store(int64(from))
	type clientStats struct {
		lat      []float64
		ops      int64
		failed   int64
		mills    int64
		failures []string
	}
	n := clients()
	per := make([]clientStats, n)
	before := readRuntime()
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c := range n {
		wg.Add(1)
		go func(cs *clientStats) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if (limit > 0 && i >= from+limit) || !time.Now().Before(deadline) {
					return
				}
				t0 := time.Now()
				out, err := e.op(i, tr)
				cs.lat = append(cs.lat, time.Since(t0).Seconds())
				cs.ops++
				if err == nil && out.verify != nil {
					err = out.verify()
				}
				if err != nil {
					cs.failed++
					if len(cs.failures) < maxFailureNotes {
						cs.failures = append(cs.failures, fmt.Sprintf("op %d: %v", i, err))
					}
					continue
				}
				cs.mills += out.mills
			}
		}(&per[c])
	}
	wg.Wait()
	elapsed := time.Since(start)
	after := readRuntime()

	s := loopStats{elapsed: elapsed}
	for _, cs := range per {
		s.lat = append(s.lat, cs.lat...)
		s.ops += cs.ops
		s.failed += cs.failed
		s.mills += cs.mills
		s.failures = append(s.failures, cs.failures...)
	}
	sort.Float64s(s.lat)
	s.allocBytes = after.allocBytes - before.allocBytes
	s.gcCycles = after.gcCycles - before.gcCycles
	s.gcPauses = histSub(after.gcPauses, before.gcPauses)
	s.schedLat = histSub(after.schedLat, before.schedLat)
	return s
}

func (s loopStats) opsPerSec() float64 {
	if s.elapsed <= 0 {
		return 0
	}
	return float64(s.ops) / s.elapsed.Seconds()
}

func (s loopStats) perOp(total float64) float64 {
	if s.ops == 0 {
		return 0
	}
	return total / float64(s.ops)
}

// quantile is the nearest-rank q-quantile of the op latencies, seconds.
func (s loopStats) quantile(q float64) float64 { return nearestRank(s.lat, q) }

func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// runtimeSample is a snapshot of the runtime counters a window reports.
type runtimeSample struct {
	allocBytes uint64
	gcCycles   uint64
	gcPauses   *metrics.Float64Histogram
	schedLat   *metrics.Float64Histogram
}

func readRuntime() runtimeSample {
	ss := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(ss)
	return runtimeSample{
		allocBytes: ss[0].Value.Uint64(),
		gcCycles:   ss[1].Value.Uint64(),
		gcPauses:   ss[2].Value.Float64Histogram(),
		schedLat:   ss[3].Value.Float64Histogram(),
	}
}

func readUint(name string) uint64 {
	ss := []metrics.Sample{{Name: name}}
	metrics.Read(ss)
	return ss[0].Value.Uint64()
}

func subCounts(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// histSub is the histogram of the samples after gained since before.
func histSub(after, before *metrics.Float64Histogram) *metrics.Float64Histogram {
	return &metrics.Float64Histogram{Counts: subCounts(after.Counts, before.Counts), Buckets: after.Buckets}
}

// histQuantile is the q-quantile of a histogram's samples, taking each
// bucket's upper bound (its lower bound for the open last bucket).
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= rank {
			if v := h.Buckets[i+1]; !math.IsInf(v, 1) {
				return v
			}
			return h.Buckets[i]
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// tracer collects the traced window's counters. Operations add to it
// only in the traced half of a --trace 1 run; it is nil otherwise.
type tracer struct {
	mu     sync.Mutex
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{counts: make(map[string]float64)} }

func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) get(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}
