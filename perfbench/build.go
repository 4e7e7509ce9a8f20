package main

import (
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/crowdhttp"
	"repro/internal/domain"
)

// buildSeeds is the fixed set of crowd seeds plan-build cycles through;
// --seed only chooses the order. Each seed's plan is built once in setup
// as the reference every remote build of that seed must equal.
var buildSeeds = []int64{11, 12, 13, 14, 15, 16, 17, 18}

// buildTargets is the query a plan is built for.
var buildTargets = []string{"Protein"}

// buildEnv builds plans over HTTP: each op is one core.Preprocess through
// a fresh crowdhttp.Client to a loopback crowd server over a fresh
// simulated crowd.
type buildEnv struct {
	order   []int // index into buildSeeds, cycled by op index
	refs    []*core.Plan
	err     float64
	corrupt func(any)
}

func setupBuild(o options) (*buildEnv, error) {
	held := newHeldOut()
	e := &buildEnv{order: rand.New(rand.NewSource(o.seed)).Perm(len(buildSeeds)), corrupt: o.corrupt}
	var errSum float64
	for _, seed := range buildSeeds {
		p, err := referencePlan(0, seed, buildTargets)
		if err != nil {
			return nil, err
		}
		we, err := held.weightedErr(seed, p)
		if err != nil {
			return nil, err
		}
		e.refs = append(e.refs, p)
		errSum += we
	}
	e.err = errSum / float64(len(buildSeeds))
	return e, nil
}

// remoteBuild runs one preprocessing through a loopback crowd server over
// a fresh simulated crowd of the seed and a fresh universe, on a client
// with its own keep-alive transport. trace, when set, receives the phase
// profiles.
func remoteBuild(seed int64, trace func(core.TraceEvent)) (*core.Plan, crowdhttp.TransportStats, error) {
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: seed})
	if err != nil {
		return nil, crowdhttp.TransportStats{}, err
	}
	srv := httptest.NewServer(crowdhttp.NewServer(sim).Handler())
	defer srv.Close()
	// One keep-alive connection per client: the closed loop then holds
	// at most one connection per client goroutine.
	transport := &http.Transport{MaxConnsPerHost: 1}
	defer transport.CloseIdleConnections()
	client := crowdhttp.NewClient(srv.URL, &http.Client{Transport: transport, Timeout: time.Minute})
	plan, err := core.Preprocess(client, core.Query{Targets: buildTargets}, bObj, bPrc, core.Options{Trace: trace})
	return plan, client.TransportStats(), err
}

func (e *buildEnv) op(i int, tr *tracer) (outcome, error) {
	k := e.order[i%len(e.order)]
	var trace func(core.TraceEvent)
	if tr != nil {
		trace = func(ev core.TraceEvent) {
			if ev.Kind == core.TracePhase {
				tr.add("questions", float64(ev.Phase.Questions))
			}
		}
	}
	plan, ts, err := remoteBuild(buildSeeds[k], trace)
	if err != nil {
		return outcome{}, err
	}
	if tr != nil {
		tr.add("requests", float64(ts.Requests))
		tr.add("batches", float64(ts.Batches))
		tr.add("batch_items", float64(ts.BatchItems))
		tr.add("coalesced", float64(ts.Coalesced))
		tr.add("retries", float64(ts.Retries))
	}
	return outcome{
		mills: int64(plan.PreprocessCost),
		verify: func() error {
			if e.corrupt != nil {
				e.corrupt(plan)
			}
			return checkPlan(plan, e.refs[k])
		},
	}, nil
}

func (e *buildEnv) opLimit() int         { return 0 }
func (e *buildEnv) weightedErr() float64 { return e.err }

func (e *buildEnv) traceWindow() func(tr *tracer, ops int64) map[string]float64 {
	return func(tr *tracer, ops int64) map[string]float64 {
		m := zeroCounts()
		per := func(v float64) float64 { return v / float64(max(ops, 1)) }
		m["crowd.questions_per_op"] = per(tr.get("questions"))
		m["crowdhttp.requests_per_op"] = per(tr.get("requests"))
		if b := tr.get("batches"); b > 0 {
			m["crowdhttp.items_per_batch"] = tr.get("batch_items") / b
		}
		m["crowdhttp.coalesced_per_op"] = per(tr.get("coalesced"))
		m["crowdhttp.retries_per_op"] = per(tr.get("retries"))
		return m
	}
}
