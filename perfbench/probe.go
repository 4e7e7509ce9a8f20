package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/query"
	"repro/internal/serve"
)

// Probe sizes: how much work each layer probe times.
const (
	probeFreshObjects = 256 // objects whose answers are generated, then re-read
	probeReps         = 31  // repetitions of each session-sized timing; the median is kept
	probeLoops        = 200 // repetitions of each microsecond-sized timing; the mean is kept
	probeBuilds       = 3   // in-process and remote builds each, interleaved
)

// countNames are the per-layer counters a workload's traced window
// reports. A workload whose ops never reach a layer reports 0 for it.
var countNames = []string{
	"crowd.questions_per_op",
	"crowdhttp.requests_per_op",
	"crowdhttp.items_per_batch",
	"crowdhttp.coalesced_per_op",
	"crowdhttp.retries_per_op",
	"query.questions_skipped_per_op",
	"query.objects_pruned_per_op",
	"adaptive.questions_saved_per_op",
	"serve.plan_cache_hit_ratio",
	"serve.answer_cache_hit_ratio",
	"serve.answer_cache_evictions_per_op",
	"serve.answer_cache_inflight_waits_per_op",
	"serve.backend_fairness",
}

func zeroCounts() map[string]float64 {
	m := make(map[string]float64, len(countNames))
	for _, n := range countNames {
		m[n] = 0
	}
	return m
}

// runtimeLayer reports the Go runtime's share of a traced window.
func runtimeLayer(s loopStats) map[string]float64 {
	return map[string]float64{
		"runtime.gc_pause_p99_us":      histQuantile(s.gcPauses, 0.99) * 1e6,
		"runtime.gc_cycles_per_kop":    float64(s.gcCycles) / float64(max(s.ops, 1)) * 1e3,
		"runtime.sched_latency_p99_us": histQuantile(s.schedLat, 0.99) * 1e6,
	}
}

// timeMean returns the mean wall time of n calls of f, in seconds.
func timeMean(n int, f func()) float64 {
	start := time.Now()
	for range n {
		f()
	}
	return time.Since(start).Seconds() / float64(n)
}

// timeMerge deals rows round-robin into n shards, as a partitioner keeps
// each shard in evaluation order, and returns the mean time query.MergeRows
// takes to gather them back, in seconds.
func timeMerge(window []*domain.Object, rows []query.ResultRow, n int) float64 {
	rank := make(map[int]int, len(window))
	for i, o := range window {
		rank[o.ID] = i
	}
	parts := make([][]query.ResultRow, n)
	for i, r := range rows {
		parts[i%n] = append(parts[i%n], r)
	}
	return timeMean(probeLoops, func() { query.MergeRows(rank, parts...) })
}

// runProbes times the calls into each layer from outside the program, on
// an environment of its own built like serve-hot's: the simulated crowd,
// preprocessing, the query engine, the serving tier and the crowd
// transport. Every timing runs on memoized answers unless its name says
// otherwise.
func runProbes(seed int64) (map[string]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	u := domain.Recipes()
	pool := u.NewObjects(rng, hotObjects)
	fresh := u.NewObjects(rng, probeFreshObjects)
	window := pool[:windowSize]
	tier, err := newTier(u, pool)
	if err != nil {
		return nil, err
	}
	sim, err := crowd.NewSim(u, crowd.SimOptions{Seed: serveCrowdSeed})
	if err != nil {
		return nil, err
	}
	snap := sim.Snapshot()

	ctx := context.Background()
	request := func(s int) serve.Request {
		req := serveShapes[s].req
		req.ObjectIDs = ids(window)
		return req
	}
	stmts := make([]*query.Statement, len(serveShapes))
	plans := make([]*core.Plan, len(serveShapes))
	for s, sh := range serveShapes {
		if _, err := tier.Execute(ctx, request(s)); err != nil {
			return nil, fmt.Errorf("warm %s: %w", sh.name, err)
		}
		if stmts[s], err = query.Parse(sh.req.Statement); err != nil {
			return nil, err
		}
		var ok bool
		if plans[s], ok = tier.CachedPlan(sh.req.Statement, bObj, bPrc); !ok {
			return nil, fmt.Errorf("no cached plan for %s", sh.name)
		}
	}
	m := make(map[string]float64)

	// crowd: generating answers never asked before, then reading the
	// same answers on a second fork, where they are memoized.
	qs, err := plans[0].Questions()
	if err != nil {
		return nil, err
	}
	ask := func(p *crowd.SimPlatform) (secs float64, answers int, err error) {
		start := time.Now()
		for _, o := range fresh {
			for _, q := range qs {
				if _, err := p.Value(o, q.Attr, q.N); err != nil {
					return 0, 0, err
				}
				answers += q.N
			}
		}
		return time.Since(start).Seconds(), answers, nil
	}
	runtime.GC()
	alloc0 := readUint("/gc/heap/allocs:bytes")
	secs, answers, err := ask(snap.Fork())
	if err != nil {
		return nil, err
	}
	m["crowd.answer_new_alloc_b"] = float64(readUint("/gc/heap/allocs:bytes")-alloc0) / float64(answers)
	m["crowd.answer_new_ns"] = secs * 1e9 / float64(answers)
	if secs, answers, err = ask(snap.Fork()); err != nil {
		return nil, err
	}
	m["crowd.answer_memo_ns"] = secs * 1e9 / float64(answers)

	// core: one object's online estimate on memoized answers.
	est := snap.Fork()
	start := time.Now()
	for _, o := range fresh {
		if _, err := plans[0].EstimateObject(est, o); err != nil {
			return nil, err
		}
	}
	m["core.estimate_us"] = time.Since(start).Seconds() * 1e6 / float64(len(fresh))

	// query: parsing, one engine session per shape on a fresh fork, and
	// the shard merge.
	m["query.parse_us"] = timeMean(probeLoops, func() {
		for _, sh := range serveShapes {
			_, _ = query.Parse(sh.req.Statement) // parsed without error above
		}
	}) * 1e6 / float64(len(serveShapes))
	memo := query.NewMapMemo()
	exec := func(s int, fork *crowd.SimPlatform) ([]query.ResultRow, error) {
		eng, err := query.NewEngine(fork, plans[s], stmts[s])
		if err != nil {
			return nil, err
		}
		switch {
		case serveShapes[s].req.Lazy:
			eng.SetLazy(query.LazyDefaults())
		case serveShapes[s].req.Adaptive:
			cfg := adaptive.Defaults()
			eng.SetAdaptive(&cfg)
		case serveShapes[s].req.ReuseAnswers:
			eng.SetReuse(memo)
		}
		return eng.Execute(stmts[s], window)
	}
	// Each shape's fork and engine session and the same request through
	// the tier are timed alternately, so drift in the host's speed cancels
	// out of their difference. A sharded shape's session is timed
	// unsharded; its tier session also forks once per shard and merges the
	// shards' rows.
	type shapeTimes struct{ exec, total, lookup, merge float64 }
	times := make([]shapeTimes, len(serveShapes))
	var forks []float64
	for s, sh := range serveShapes {
		rows, err := exec(s, snap.Fork()) // memoizes the answers (and fills memo)
		if err != nil {
			return nil, err
		}
		ex, tot := make([]float64, probeReps), make([]float64, probeReps)
		for r := range probeReps {
			start := time.Now()
			fork := snap.Fork()
			forks = append(forks, time.Since(start).Seconds())
			start = time.Now()
			if _, err := exec(s, fork); err != nil {
				return nil, err
			}
			ex[r] = time.Since(start).Seconds()
			start = time.Now()
			if _, err := tier.Execute(ctx, request(s)); err != nil {
				return nil, err
			}
			tot[r] = time.Since(start).Seconds()
		}
		times[s] = shapeTimes{
			exec:   median(ex),
			total:  median(tot),
			lookup: timeMean(probeLoops, func() { tier.CachedPlan(sh.req.Statement, bObj, bPrc) }),
		}
		if n := sh.req.Shards; n > 1 {
			times[s].merge = timeMerge(window, rows, n)
			m["query.merge_us"] = times[s].merge * 1e6
		} else {
			m["query.exec_us."+sh.name] = times[s].exec * 1e6
		}
	}
	fork := median(forks)
	m["crowd.fork_us"] = fork * 1e6
	var lookupSum, residualSum, executeSum float64
	for s, sh := range serveShapes {
		t := times[s]
		parts := t.lookup + fork + t.exec + t.merge
		if n := sh.req.Shards; n > 1 {
			parts += float64(n) * fork
		}
		lookupSum += t.lookup
		residualSum += t.total - parts
		executeSum += t.total
	}
	m["serve.plan_lookup_us"] = lookupSum * 1e6 / float64(len(serveShapes))
	m["serve.residual_us"] = residualSum * 1e6 / float64(len(serveShapes))
	m["serve.residual_share"] = residualSum / executeSum

	// core and crowdhttp: the same plan built in process and over a
	// loopback crowd server, interleaved.
	var local, remote []float64
	phases := make(map[string][]float64)
	for i := range 2 * probeBuilds {
		if i%4 == 1 || i%4 == 2 {
			start := time.Now()
			if _, _, err := remoteBuild(buildSeeds[0], nil); err != nil {
				return nil, err
			}
			remote = append(remote, time.Since(start).Seconds())
			continue
		}
		start := time.Now()
		p, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: buildSeeds[0]})
		if err != nil {
			return nil, err
		}
		_, err = core.Preprocess(p, core.Query{Targets: buildTargets}, bObj, bPrc, core.Options{Trace: func(ev core.TraceEvent) {
			if ev.Kind == core.TracePhase {
				phases[ev.Phase.Phase] = append(phases[ev.Phase.Phase], ev.Phase.Wall.Seconds())
			}
		}})
		if err != nil {
			return nil, err
		}
		local = append(local, time.Since(start).Seconds())
	}
	m["crowdhttp.overhead_ms"] = (median(remote) - median(local)) * 1e3
	for _, ph := range []string{core.PhaseCollect, core.PhaseDismantle, core.PhaseVerify, core.PhaseOptimize, core.PhaseTrain} {
		m["core."+ph+"_ms"] = median(phases[ph]) * 1e3
	}
	return m, nil
}
