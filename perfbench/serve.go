package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/query"
	"repro/internal/serve"
)

// shape is one request of the fixed serve cycle; arrival i sends shape
// i mod the cycle's length.
type shape struct {
	name string
	mode mode
	req  serve.Request // without ObjectIDs
}

// shapes never combine lazy evaluation with answer reuse: a warm memo
// turns lazy's approximate decisions into exact ones, so rows would
// depend on the order sessions ran in.
var serveShapes = []shape{
	{"eager", modeEager, serve.Request{Statement: "SELECT Protein"}},
	{"lazy_filter", modeLazy, serve.Request{Statement: "SELECT Protein WHERE Calories < 400", Lazy: true}},
	{"lazy_topk", modeLazy, serve.Request{Statement: "SELECT Protein ORDER BY Protein DESC LIMIT 3", Lazy: true}},
	{"adaptive", modeAdaptive, serve.Request{Statement: "SELECT Protein", Adaptive: true}},
	{"reuse", modeEager, serve.Request{Statement: "SELECT Protein, Calories", ReuseAnswers: true}},
	{"sharded", modeEager, serve.Request{Statement: "SELECT Calories", Shards: 2}},
}

const (
	// windowSize is how many objects one session evaluates.
	windowSize = 16
	// hotObjects and hotWindows fix serve-hot's working set: sessions
	// draw one of hotWindows windows over hotObjects registered objects.
	hotObjects = 64
	hotWindows = 16
	// freshWindowsPerSecond sizes serve-fresh: a run may use this many
	// never-touched windows per second of its window, whatever the
	// program's speed, so memory does not grow with speed.
	freshWindowsPerSecond = 300
	// freshCheckEvery is the mean gap between checked serve-fresh ops.
	freshCheckEvery = 32
	// serveCrowdSeed seeds both replica backends and every serve
	// reference; it is part of the benchmark, not of its inputs.
	serveCrowdSeed = 1503
	// answerCacheEntries bounds the tier's shared answer cache. It holds
	// serve-hot's whole working set; serve-fresh fills and evicts it.
	answerCacheEntries = 4096
)

// serveEnv is a serving tier with its request stream and references.
type serveEnv struct {
	tier    *serve.Tier
	shapes  []shape
	fresh   bool
	windows [][]int // object ids per window
	// hotSeq is serve-hot's seeded window sequence, cycled by op index.
	hotSeq []int
	// refs holds the references of the checked requests, by refKey. On
	// serve-hot every op is checked; on serve-fresh a seeded sample is.
	refs    map[int]*reference
	limit   int
	err     float64
	corrupt func(any)
}

func (e *serveEnv) window(i int) int {
	if e.fresh {
		return i
	}
	return e.hotSeq[i%len(e.hotSeq)]
}

// refKey names the request of shape s on window w.
func (e *serveEnv) refKey(s, w int) int { return w*len(e.shapes) + s }

func (e *serveEnv) op(i int, tr *tracer) (outcome, error) {
	s, w := i%len(e.shapes), e.window(i)
	req := e.shapes[s].req
	req.ObjectIDs = e.windows[w]
	res, err := e.tier.Execute(context.Background(), req)
	if err != nil {
		return outcome{}, err
	}
	if tr != nil {
		tr.add("skipped", float64(res.QuestionsSkipped))
		tr.add("pruned", float64(res.ObjectsPruned))
		tr.add("saved", float64(res.QuestionsSaved))
	}
	out := outcome{mills: int64(res.OnlineSpent)}
	if ref := e.refs[e.refKey(s, w)]; ref != nil {
		out.verify = func() error {
			if e.corrupt != nil {
				e.corrupt(res)
			}
			return checkResult(res, ref)
		}
	}
	return out, nil
}

func (e *serveEnv) opLimit() int         { return e.limit }
func (e *serveEnv) weightedErr() float64 { return e.err }

func (e *serveEnv) traceWindow() func(tr *tracer, ops int64) map[string]float64 {
	before := e.tier.Stats()
	return func(tr *tracer, ops int64) map[string]float64 {
		after := e.tier.Stats()
		m := zeroCounts()
		per := func(v float64) float64 { return v / float64(max(ops, 1)) }
		answered := make([]float64, len(after.Backends))
		var total float64
		for i, b := range after.Backends {
			answered[i] = float64(b.QuestionsAnswered - before.Backends[i].QuestionsAnswered)
			total += answered[i]
		}
		m["crowd.questions_per_op"] = per(total)
		m["serve.backend_fairness"] = jain(answered)
		m["serve.plan_cache_hit_ratio"] = ratio(after.Cache.Hits-before.Cache.Hits,
			after.Cache.Misses-before.Cache.Misses)
		ac, bc := after.AnswerCache, before.AnswerCache
		m["serve.answer_cache_hit_ratio"] = ratio(ac.Hits-bc.Hits, ac.Misses-bc.Misses)
		m["serve.answer_cache_evictions_per_op"] = per(float64(ac.Evictions - bc.Evictions))
		m["serve.answer_cache_inflight_waits_per_op"] = per(float64(ac.InflightWaits - bc.InflightWaits))
		m["query.questions_skipped_per_op"] = per(tr.get("skipped"))
		m["query.objects_pruned_per_op"] = per(tr.get("pruned"))
		m["adaptive.questions_saved_per_op"] = per(tr.get("saved"))
		return m
	}
}

// ratio is hits / (hits + misses), 0 with neither.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// jain is Jain's fairness index (Σx)²/(n·Σx²), 0 when every x is 0.
func jain(xs []float64) float64 {
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// planKey names the plan a statement needs: its sorted attribute set.
func planKey(st *query.Statement) string { return strings.Join(st.Attributes(), ",") }

// newTier builds the serving tier both serve workloads share: two
// replica backends of one crowd seed, so results do not depend on
// routing; the answer cache on; and no admission limit.
func newTier(u *domain.Universe, objs []*domain.Object) (*serve.Tier, error) {
	cfg := serve.Config{
		Domain:      "recipes",
		Objects:     objs,
		AnswerCache: answerCacheEntries,
		DefaultBObj: bObj,
		DefaultBPrc: bPrc,
	}
	for i := range 2 {
		sim, err := crowd.NewSim(u, crowd.SimOptions{Seed: serveCrowdSeed})
		if err != nil {
			return nil, err
		}
		cfg.Backends = append(cfg.Backends, serve.Backend{Name: fmt.Sprintf("replica-%d", i), Platform: sim})
	}
	return serve.New(cfg)
}

// setupServe builds serve-hot (fresh false) or serve-fresh over a request
// cycle: objects and windows from the seed, reference plans and the tier,
// the references of every op that will be checked, and a warm-up pass
// that builds the tier's plans (and on serve-hot, asks every question)
// and checks them. It rejects a shape whose references select no rows or
// spend nothing, as such a shape measures nothing.
func setupServe(o options, fresh bool, shapes []shape) (*serveEnv, error) {
	rng := rand.New(rand.NewSource(o.seed))
	u := domain.Recipes()
	held := newHeldOut()
	e := &serveEnv{shapes: shapes, fresh: fresh, refs: make(map[int]*reference), corrupt: o.corrupt}

	var objs []*domain.Object
	var warm []int // windows every shape runs on once during setup
	if fresh {
		e.limit = max(2, int(o.seconds*freshWindowsPerSecond))
		objs = u.NewObjects(rng, (e.limit+1)*windowSize)
		for w := range e.limit + 1 {
			e.windows = append(e.windows, ids(objs[w*windowSize:(w+1)*windowSize]))
		}
		warm = []int{e.limit}
	} else {
		objs = u.NewObjects(rng, hotObjects)
		for w := range hotWindows {
			var win []*domain.Object
			for _, k := range rng.Perm(hotObjects)[:windowSize] {
				win = append(win, objs[k])
			}
			e.windows = append(e.windows, ids(win))
			warm = append(warm, w)
		}
		e.hotSeq = make([]int, 1<<12)
		for i := range e.hotSeq {
			e.hotSeq[i] = rng.Intn(hotWindows)
		}
	}
	byID := make(map[int]*domain.Object, len(objs))
	for _, ob := range objs {
		byID[ob.ID] = ob
	}

	// Every object exists before the tier snapshots its backends, so its
	// sessions' plan builds start from this id.
	next := u.PeekID()
	stmts := make([]*query.Statement, len(shapes))
	plans := make(map[string]*core.Plan)
	for s, sh := range shapes {
		st, err := query.Parse(sh.req.Statement)
		if err != nil {
			return nil, err
		}
		stmts[s] = st
		if plans[planKey(st)] == nil {
			p, err := referencePlan(next, serveCrowdSeed, st.Attributes())
			if err != nil {
				return nil, err
			}
			plans[planKey(st)] = p
		}
	}
	var errSum float64
	for _, p := range plans {
		we, err := held.weightedErr(serveCrowdSeed, p)
		if err != nil {
			return nil, err
		}
		errSum += we
	}
	e.err = errSum / float64(len(plans))

	tier, err := newTier(u, objs)
	if err != nil {
		return nil, err
	}
	e.tier = tier

	type work struct{ rows, spend int64 }
	done := make([]work, len(shapes))
	addRef := func(s, w int) error {
		win := make([]*domain.Object, len(e.windows[w]))
		for k, id := range e.windows[w] {
			win[k] = byID[id]
		}
		ref, err := evaluate(u, serveCrowdSeed, plans[planKey(stmts[s])], stmts[s], shapes[s].mode, win)
		if err != nil {
			return err
		}
		e.refs[e.refKey(s, w)] = ref
		done[s].rows += int64(len(ref.rows))
		done[s].spend += int64(ref.spend)
		return nil
	}
	for _, w := range warm {
		for s := range shapes {
			if err := addRef(s, w); err != nil {
				return nil, err
			}
		}
	}
	for i := range e.limit {
		if rng.Intn(freshCheckEvery) == 0 {
			if err := addRef(i%len(shapes), i); err != nil {
				return nil, err
			}
		}
	}

	// Warm-up: every shape once on every warm window, checked. It builds
	// the tier's plans; on serve-hot, whose warm windows are all its
	// windows, it also asks every question the measured ops will ask, so
	// they are served from memory.
	for _, w := range warm {
		for s, sh := range shapes {
			req := sh.req
			req.ObjectIDs = e.windows[w]
			res, err := tier.Execute(context.Background(), req)
			if err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", sh.name, err)
			}
			if err := checkResult(res, e.refs[e.refKey(s, w)]); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", sh.name, err)
			}
		}
	}
	for s, sh := range shapes {
		if done[s].rows == 0 || done[s].spend == 0 {
			return nil, fmt.Errorf("shape %s does no work: its references select %d rows for %d mills",
				sh.name, done[s].rows, done[s].spend)
		}
		got, ok := tier.CachedPlan(sh.req.Statement, bObj, bPrc)
		if !ok {
			return nil, errors.New("warm-up left plan " + planKey(stmts[s]) + " uncached")
		}
		if err := checkPlan(got, plans[planKey(stmts[s])]); err != nil {
			return nil, fmt.Errorf("tier plan for %s: %w", sh.name, err)
		}
	}
	return e, nil
}

func ids(objs []*domain.Object) []int {
	out := make([]int, len(objs))
	for i, o := range objs {
		out[i] = o.ID
	}
	return out
}
