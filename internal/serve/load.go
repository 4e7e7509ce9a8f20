package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/crowd"
)

// Executor runs one query session — implemented by *Tier (in process)
// and by crowdhttp.QueryClient (over the wire), so the same load harness
// drives both.
type Executor interface {
	Execute(ctx context.Context, req Request) (*Result, error)
}

// LoadConfig shapes one load run.
type LoadConfig struct {
	// Statements are cycled per arrival (at least one).
	Statements []string
	// Classes are cycled per arrival ("" entries = DefaultClass; nil =
	// all DefaultClass).
	Classes []string
	// Concurrency bounds in-flight sessions (default 8). With Rate == 0
	// the run is closed-loop: exactly Concurrency workers issue queries
	// back to back.
	Concurrency int
	// Rate, when > 0, makes the run open-loop: arrivals are generated at
	// Rate per second regardless of completions (up to Concurrency
	// outstanding; arrivals beyond that are counted as sheds).
	Rate float64
	// Duration bounds the run (default 5s).
	Duration time.Duration
	// MaxObjects truncates each query's evaluation set (0 = all).
	MaxObjects int
	// BObj/BPrc override the target's default budgets when nonzero.
	BObj crowd.Cost
	BPrc crowd.Cost
	// Adaptive opts every generated session into the adaptive online
	// evaluator (Request.Adaptive).
	Adaptive bool
	// Lazy opts every generated session into the lazy predicate-ordered
	// evaluator (Request.Lazy). Composes with Adaptive and Reuse.
	Lazy bool
	// Shards sets every generated session's shard-count override
	// (Request.Shards; 0 = target default).
	Shards int
	// Reuse opts every generated session into the target's shared answer
	// cache (Request.ReuseAnswers).
	Reuse bool
}

// LoadReport is the outcome of one load run.
type LoadReport struct {
	Queries  int64 `json:"queries"`
	Errors   int64 `json:"errors"`
	Rejected int64 `json:"rejected"`
	// Shed counts open-loop arrivals dropped because Concurrency sessions
	// were already outstanding (the open-loop analogue of queue overflow).
	Shed      int64 `json:"shed"`
	CacheHits int64 `json:"cache_hits"`
	// ObjectsPruned and QuestionsSkipped total the lazy evaluator's
	// savings over every completed session (zero unless Lazy).
	ObjectsPruned    int64 `json:"objects_pruned,omitempty"`
	QuestionsSkipped int64 `json:"questions_skipped,omitempty"`
	// AnswersReused and SpendSavedMills total the answer cache's savings
	// over every completed session (zero unless Reuse).
	AnswersReused   int64         `json:"answers_reused,omitempty"`
	SpendSavedMills int64         `json:"spend_saved_mills,omitempty"`
	Elapsed         time.Duration `json:"elapsed_ns"`
	QPS             float64       `json:"qps"`
	P50             time.Duration `json:"p50_ns"`
	P99             time.Duration `json:"p99_ns"`
}

// RunLoad drives query traffic at the executor: closed-loop (Concurrency
// workers back to back) when Rate == 0, open-loop arrivals at Rate/sec
// otherwise. Per-query errors are counted, not fatal — a load run reports
// the error rate instead of dying on the first shed session.
func RunLoad(ex Executor, cfg LoadConfig) (*LoadReport, error) {
	if len(cfg.Statements) == 0 {
		return nil, errors.New("serve: load run needs at least one statement")
	}
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	classes := cfg.Classes
	if len(classes) == 0 {
		classes = []string{DefaultClass}
	}

	var (
		rep     LoadReport
		lat     = newLatencyRing(1 << 16)
		arrival atomic.Int64
		wg      sync.WaitGroup
	)
	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()

	oneQuery := func() {
		i := arrival.Add(1) - 1
		req := Request{
			Statement:    cfg.Statements[i%int64(len(cfg.Statements))],
			Class:        classes[i%int64(len(classes))],
			MaxObjects:   cfg.MaxObjects,
			BObj:         cfg.BObj,
			BPrc:         cfg.BPrc,
			Adaptive:     cfg.Adaptive,
			Lazy:         cfg.Lazy,
			Shards:       cfg.Shards,
			ReuseAnswers: cfg.Reuse,
		}
		start := time.Now()
		res, err := ex.Execute(ctx, req)
		switch {
		case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
			// The run ended mid-session; count neither success nor error.
			return
		case errors.Is(err, ErrRejected):
			atomic.AddInt64(&rep.Rejected, 1)
			return
		case err != nil:
			atomic.AddInt64(&rep.Errors, 1)
			return
		}
		atomic.AddInt64(&rep.Queries, 1)
		if res.CacheHit {
			atomic.AddInt64(&rep.CacheHits, 1)
		}
		if res.Lazy {
			atomic.AddInt64(&rep.ObjectsPruned, res.ObjectsPruned)
			atomic.AddInt64(&rep.QuestionsSkipped, res.QuestionsSkipped)
		}
		if res.Reuse {
			atomic.AddInt64(&rep.AnswersReused, res.AnswersReused)
			atomic.AddInt64(&rep.SpendSavedMills, res.SpendSavedMills)
		}
		lat.add(time.Since(start).Nanoseconds())
	}

	begin := time.Now()
	if cfg.Rate <= 0 {
		// Closed loop: Concurrency workers, back to back until deadline.
		for w := 0; w < cfg.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					oneQuery()
				}
			}()
		}
	} else {
		// Open loop: fire arrivals on a fixed interval independent of
		// completions — the traffic a front-end fans in regardless of how
		// slow the tier is, which is what exposes queueing collapse.
		interval := time.Duration(float64(time.Second) / cfg.Rate)
		if interval <= 0 {
			interval = time.Microsecond
		}
		slots := make(chan struct{}, cfg.Concurrency)
		ticker := time.NewTicker(interval)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer ticker.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
					select {
					case slots <- struct{}{}:
						wg.Add(1)
						go func() {
							defer wg.Done()
							defer func() { <-slots }()
							oneQuery()
						}()
					default:
						atomic.AddInt64(&rep.Shed, 1)
					}
				}
			}
		}()
	}
	wg.Wait()
	rep.Elapsed = time.Since(begin)
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		rep.QPS = float64(rep.Queries) / secs
	}
	q := lat.quantiles(0.50, 0.99)
	rep.P50, rep.P99 = time.Duration(q[0]), time.Duration(q[1])
	return &rep, nil
}

// GainConfig shapes a plan-cache gain measurement.
type GainConfig struct {
	// Statement is the repeated query whose warm latency is measured.
	Statement string
	// Probes is how many cold/warm pairs to sample (default 3).
	Probes int
	// MaxObjects, BObj, BPrc as in LoadConfig. Each cold probe perturbs
	// BObj by one mill so its plan key misses the cache.
	MaxObjects int
	BObj       crowd.Cost
	BPrc       crowd.Cost
}

// CacheGain is the cold-vs-warm outcome.
type CacheGain struct {
	ColdP50 time.Duration `json:"cold_p50_ns"`
	WarmP50 time.Duration `json:"warm_p50_ns"`
	// Gain is ColdP50 / WarmP50: how much a repeated query saves by
	// skipping preprocessing (and re-reading memoized answers).
	Gain float64 `json:"plan_cache_gain"`
}

// MeasureCacheGain compares repeated-query latency cold (plan-cache miss:
// every probe uses a budget one mill off any earlier one, forcing a full
// core.Preprocess) against warm (plan-cache hit on a pre-warmed key). The
// probes run in ABBA order — cold/warm pairs, then warm/cold pairs — so
// slow monotonic drift of the host cancels out of the ratio, and the
// median of each side is used.
func MeasureCacheGain(ex Executor, cfg GainConfig) (*CacheGain, error) {
	if cfg.Statement == "" {
		return nil, errors.New("serve: gain measurement needs a statement")
	}
	if cfg.Probes <= 0 {
		cfg.Probes = 3
	}
	if cfg.BObj <= 0 {
		cfg.BObj = crowd.Cents(4)
	}
	ctx := context.Background()
	base := Request{
		Statement:  cfg.Statement,
		Class:      DefaultClass,
		MaxObjects: cfg.MaxObjects,
		BObj:       cfg.BObj,
		BPrc:       cfg.BPrc,
	}

	timeOne := func(req Request, wantHit bool) (time.Duration, error) {
		start := time.Now()
		res, err := ex.Execute(ctx, req)
		if err != nil {
			return 0, err
		}
		if res.CacheHit != wantHit {
			return 0, fmt.Errorf("serve: gain probe expected cache_hit=%v, got %v (statement %q, bObj %v)",
				wantHit, res.CacheHit, req.Statement, req.BObj)
		}
		return time.Since(start), nil
	}

	// Warm the repeated key once (a miss, excluded from both sides).
	if _, err := ex.Execute(ctx, base); err != nil {
		return nil, err
	}

	var cold, warm []time.Duration
	coldKeys := 0
	nextCold := func() Request {
		coldKeys++
		r := base
		r.BObj = cfg.BObj + crowd.Cost(coldKeys) // one mill off: fresh plan key
		return r
	}
	probe := func(coldFirst bool) error {
		if coldFirst {
			c, err := timeOne(nextCold(), false)
			if err != nil {
				return err
			}
			w, err := timeOne(base, true)
			if err != nil {
				return err
			}
			cold, warm = append(cold, c), append(warm, w)
			return nil
		}
		w, err := timeOne(base, true)
		if err != nil {
			return err
		}
		c, err := timeOne(nextCold(), false)
		if err != nil {
			return err
		}
		cold, warm = append(cold, c), append(warm, w)
		return nil
	}
	for i := 0; i < cfg.Probes; i++ {
		// ABBA: first half cold-then-warm, second half warm-then-cold.
		if err := probe(i < (cfg.Probes+1)/2); err != nil {
			return nil, err
		}
	}

	g := &CacheGain{ColdP50: median(cold), WarmP50: median(warm)}
	if g.WarmP50 > 0 {
		g.Gain = float64(g.ColdP50) / float64(g.WarmP50)
	}
	return g, nil
}

func median(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), ds...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	return sorted[len(sorted)/2]
}
