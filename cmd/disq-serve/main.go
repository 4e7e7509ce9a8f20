// Command disq-serve runs a simulated crowd platform as a standalone HTTP
// service, so the DisQ pipeline (cmd/disq, or any crowdhttp.Client) can
// run against it from another process — the deployment topology of a real
// crowdsourcing integration.
//
// Two modes:
//
//   - Default: the question-level API (/v1/value, /v1/dismantle, ...) over
//     one platform; the client runs the pipeline and budgets itself.
//   - -serve-queries: the multi-tenant query API (/v1/serve/query,
//     /v1/serve/stats) over -backends simulated platforms behind a
//     serve.Tier — plan cache with single-flight preprocessing, pluggable
//     routing (-route), and per-class token-bucket admission control
//     (-admission). Clients POST whole statements — including ORDER BY
//     ... LIMIT top-k and per-request "lazy": true sessions through the
//     lazy predicate-ordered evaluator; see cmd/disq-load.
//
// Fault injection (for rehearsing the retrying client against a flaky
// deployment): -fail-rate rejects a fraction of requests with 503 before
// they execute, -drop-rate loses responses after execution (recoverable
// only through the client's idempotency keys), -latency delays every
// request, -fail-after N makes every request after the first N fail, and
// -short-rate truncates value/example batches at the platform.
//
// Observability: GET /v1/stats (question mode) or /v1/serve/stats (query
// mode); -pprof-addr serves net/http/pprof on a separate (loopback by
// default) listener. On SIGINT/SIGTERM the server drains in-flight
// requests, closes its listeners and prints a final stats snapshot.
//
// Usage:
//
//	disq-serve -domain recipes -addr :8080 -seed 42
//	disq-serve -domain recipes -fail-rate 0.1 -drop-rate 0.05 -latency 20ms
//	disq-serve -domain recipes -serve-queries -backends 4 -route least-loaded
//	disq-serve -serve-queries -backends 4 -shards 4 -partition hash
//	disq-serve -serve-queries -admission 'interactive=50:100,batch=5:10:64'
//	# elsewhere: client := disq.NewCrowdClient("http://host:8080", nil)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux, served via -pprof-addr
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/crowd"
	"repro/internal/crowdhttp"
	"repro/internal/domain"
	"repro/internal/serve"
)

// drainTimeout bounds graceful shutdown: in-flight requests get this long
// to finish after SIGINT/SIGTERM before the server is torn down.
const drainTimeout = 10 * time.Second

type config struct {
	domainName string
	addr       string
	seed       int64
	spam       float64
	filterEff  float64
	register   int

	serveQueries bool
	backends     int
	route        string
	shards       int
	partition    string
	cacheSize    int
	answerCache  int
	answerTTL    time.Duration
	admission    string
	bObjCents    float64
	bPrcDollars  float64

	faults    crowdhttp.FaultOptions
	shortRate float64
	pprofAddr string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.domainName, "domain", "recipes", "domain: pictures, recipes, houses, laptops")
	flag.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "listen address")
	flag.Int64Var(&cfg.seed, "seed", 1, "platform seed")
	flag.Float64Var(&cfg.spam, "spam", 0, "spam worker rate (0..1)")
	flag.Float64Var(&cfg.filterEff, "filter", 0.9, "spam filter efficiency (0..1)")
	flag.IntVar(&cfg.register, "register", 100, "database objects to pre-register for online evaluation")

	flag.BoolVar(&cfg.serveQueries, "serve-queries", false, "serve the multi-tenant query API instead of the question-level API")
	flag.IntVar(&cfg.backends, "backends", 2, "query mode: simulated crowd backends to multiplex sessions over")
	flag.StringVar(&cfg.route, "route", "", "query mode: routing policy (round-robin, least-loaded, plan-affinity)")
	flag.IntVar(&cfg.shards, "shards", 0, "query mode: object partitions evaluated in parallel per query (0/1 = unsharded; >1 makes the backends replicas)")
	flag.StringVar(&cfg.partition, "partition", "", "query mode: shard-assignment policy (hash, range)")
	flag.IntVar(&cfg.cacheSize, "cache-size", 64, "query mode: plan cache capacity (LRU beyond it)")
	flag.IntVar(&cfg.answerCache, "answer-cache", 4096, "query mode: shared answer-reuse cache capacity in cached answer prefixes, one per attribute and object (0 = off; sessions opt in per request)")
	flag.DurationVar(&cfg.answerTTL, "answer-ttl", 0, "query mode: expire cached answer prefixes after this long (0 = never)")
	flag.StringVar(&cfg.admission, "admission", "", "query mode: per-class token buckets, 'class=rate:burst[:queue[:maxwait]]' comma-separated (e.g. 'batch=5:10:64')")
	flag.Float64Var(&cfg.bObjCents, "bobj-cents", 4, "query mode: default per-object budget, cents")
	flag.Float64Var(&cfg.bPrcDollars, "bprc-dollars", 10, "query mode: default preprocessing budget, dollars")

	flag.Float64Var(&cfg.faults.FailRate, "fail-rate", 0, "inject: fraction of requests rejected with 503 before executing (0..1)")
	flag.Float64Var(&cfg.faults.DropRate, "drop-rate", 0, "inject: fraction of executed responses dropped, recovered via idempotent replay (0..1)")
	flag.IntVar(&cfg.faults.FailAfter, "fail-after", 0, "inject: every request after the first N fails with 503 (0 = off)")
	flag.DurationVar(&cfg.faults.Latency, "latency", 0, "inject: added latency per request")
	flag.Float64Var(&cfg.shortRate, "short-rate", 0, "inject: fraction of value/example batches truncated at the platform (0..1)")
	flag.Int64Var(&cfg.faults.Seed, "fault-seed", 0, "fault-injection seed (default: platform seed)")

	flag.StringVar(&cfg.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off)")
	flag.Parse()

	if err := cfg.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "disq-serve: invalid flags:", err)
		os.Exit(2)
	}
	if cfg.faults.Seed == 0 {
		cfg.faults.Seed = cfg.seed
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "disq-serve:", err)
		os.Exit(1)
	}
}

// validate rejects out-of-range flag values before any listener opens, so
// a typo'd rate fails loudly instead of silently serving garbage.
func (c *config) validate() error {
	checkUnit := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("-%s must be in [0,1], got %v", name, v)
		}
		return nil
	}
	for _, u := range []struct {
		name string
		v    float64
	}{
		{"spam", c.spam}, {"filter", c.filterEff},
		{"fail-rate", c.faults.FailRate}, {"drop-rate", c.faults.DropRate},
		{"short-rate", c.shortRate},
	} {
		if err := checkUnit(u.name, u.v); err != nil {
			return err
		}
	}
	if c.register < 0 {
		return fmt.Errorf("-register must be >= 0, got %d", c.register)
	}
	if c.faults.FailAfter < 0 {
		return fmt.Errorf("-fail-after must be >= 0, got %d", c.faults.FailAfter)
	}
	if c.faults.Latency < 0 {
		return fmt.Errorf("-latency must be >= 0, got %v", c.faults.Latency)
	}
	if c.serveQueries {
		if c.backends < 1 {
			return fmt.Errorf("-backends must be >= 1, got %d", c.backends)
		}
		if c.cacheSize < 1 {
			return fmt.Errorf("-cache-size must be >= 1, got %d", c.cacheSize)
		}
		if c.bObjCents <= 0 || c.bPrcDollars <= 0 {
			return fmt.Errorf("-bobj-cents and -bprc-dollars must be > 0")
		}
		if _, err := serve.NewRouter(c.route); err != nil {
			return err
		}
		if c.shards < 0 {
			return fmt.Errorf("-shards must be >= 0, got %d", c.shards)
		}
		if c.answerCache < 0 {
			return fmt.Errorf("-answer-cache must be >= 0, got %d", c.answerCache)
		}
		if c.answerTTL < 0 {
			return fmt.Errorf("-answer-ttl must be >= 0, got %v", c.answerTTL)
		}
		if _, err := serve.NewPartitioner(c.partition); err != nil {
			return err
		}
		if _, err := parseAdmission(c.admission); err != nil {
			return err
		}
	}
	return nil
}

// parseAdmission decodes 'class=rate:burst[:queue[:maxwait]]' pairs, e.g.
// 'interactive=50:100,batch=5:10:64:2s'.
func parseAdmission(s string) (map[string]serve.BucketConfig, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	out := make(map[string]serve.BucketConfig)
	for _, entry := range strings.Split(s, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		class, spec, ok := strings.Cut(entry, "=")
		if !ok || class == "" {
			return nil, fmt.Errorf("-admission entry %q: want class=rate:burst[:queue[:maxwait]]", entry)
		}
		parts := strings.Split(spec, ":")
		if len(parts) < 2 || len(parts) > 4 {
			return nil, fmt.Errorf("-admission entry %q: want rate:burst[:queue[:maxwait]]", entry)
		}
		var bc serve.BucketConfig
		var err error
		if bc.Rate, err = strconv.ParseFloat(parts[0], 64); err != nil || bc.Rate < 0 {
			return nil, fmt.Errorf("-admission %q: bad rate %q", class, parts[0])
		}
		if bc.Burst, err = strconv.Atoi(parts[1]); err != nil || bc.Burst < 0 {
			return nil, fmt.Errorf("-admission %q: bad burst %q", class, parts[1])
		}
		if len(parts) >= 3 {
			if bc.MaxQueue, err = strconv.Atoi(parts[2]); err != nil || bc.MaxQueue < 0 {
				return nil, fmt.Errorf("-admission %q: bad queue %q", class, parts[2])
			}
		}
		if len(parts) == 4 {
			if bc.MaxWait, err = time.ParseDuration(parts[3]); err != nil || bc.MaxWait < 0 {
				return nil, fmt.Errorf("-admission %q: bad maxwait %q", class, parts[3])
			}
		}
		out[class] = bc
	}
	return out, nil
}

func run(cfg config) error {
	build, ok := domain.Registry()[cfg.domainName]
	if !ok {
		return fmt.Errorf("unknown domain %q", cfg.domainName)
	}
	u := build()

	var (
		handler    http.Handler
		finalStats func() interface{}
	)
	if cfg.serveQueries {
		h, stats, err := buildQueryTier(cfg, u)
		if err != nil {
			return err
		}
		handler, finalStats = h, stats
	} else {
		h, stats, err := buildQuestionServer(cfg, u)
		if err != nil {
			return err
		}
		handler, finalStats = h, stats
	}

	listener, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if cfg.pprofAddr != "" {
		pprofListener, err := net.Listen("tcp", cfg.pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Printf("pprof on http://%s/debug/pprof/\n", pprofListener.Addr())
		// The pprof import registers on the default mux; serve it on its
		// own listener so profiling stays off the public API address.
		go func() { _ = http.Serve(pprofListener, http.DefaultServeMux) }()
	}

	srv := &http.Server{Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(listener) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Drain: stop accepting, let in-flight requests finish, then flush a
	// final stats snapshot so a scripted run (CI smoke, load tests)
	// captures the server-side counters on the way out.
	fmt.Println("disq-serve: signal received, draining...")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if finalStats != nil {
		if out, err := json.MarshalIndent(finalStats(), "", "  "); err == nil {
			fmt.Printf("final stats:\n%s\n", out)
		}
	}
	fmt.Println("disq-serve: drained, bye")
	return nil
}

// buildQuestionServer assembles the question-level API (the original
// single-platform mode).
func buildQuestionServer(cfg config, u *domain.Universe) (http.Handler, func() interface{}, error) {
	sim, err := crowd.NewSim(u, crowd.SimOptions{
		Seed:             cfg.seed,
		SpamRate:         cfg.spam,
		FilterEfficiency: cfg.filterEff,
	})
	if err != nil {
		return nil, nil, err
	}
	var platform crowd.Platform = sim
	if cfg.shortRate > 0 {
		platform = crowd.NewFaulty(sim, crowd.FaultyOptions{Seed: cfg.faults.Seed, ShortRate: cfg.shortRate})
	}
	injecting := cfg.faults.FailRate > 0 || cfg.faults.DropRate > 0 || cfg.faults.FailAfter > 0 ||
		cfg.faults.Latency > 0 || cfg.shortRate > 0
	var server *crowdhttp.Server
	if injecting {
		server = crowdhttp.NewFaultyServer(platform, cfg.faults)
	} else {
		server = crowdhttp.NewServer(platform)
	}
	// Pre-register a batch of "database" objects so clients can evaluate
	// them by id (ids are printed for convenience).
	objs := u.NewObjects(rand.New(rand.NewSource(cfg.seed^0xdb)), cfg.register)
	for _, o := range objs {
		server.RegisterObject(o)
	}
	fmt.Printf("serving %q crowd platform on http://%s (stats at /v1/stats)\n", cfg.domainName, cfg.addr)
	if injecting {
		fmt.Printf("fault injection: fail-rate %.2f drop-rate %.2f fail-after %d latency %s short-rate %.2f (seed %d)\n",
			cfg.faults.FailRate, cfg.faults.DropRate, cfg.faults.FailAfter, cfg.faults.Latency, cfg.shortRate, cfg.faults.Seed)
	}
	if cfg.register > 0 {
		fmt.Printf("registered database objects: ids %d..%d\n", objs[0].ID, objs[len(objs)-1].ID)
	}
	return server.Handler(), func() interface{} {
		return map[string]int64{"injected_faults": server.InjectedFaults()}
	}, nil
}

// buildQueryTier assembles the multi-tenant query API: -backends sims
// over one shared universe (consistent object ids across backends)
// behind a serve.Tier.
func buildQueryTier(cfg config, u *domain.Universe) (http.Handler, func() interface{}, error) {
	// Objects first: snapshots taken inside serve.New pin the universe's
	// id watermark, so the database must exist before the tier does.
	objs := u.NewObjects(rand.New(rand.NewSource(cfg.seed^0xdb)), cfg.register)
	admission, err := parseAdmission(cfg.admission)
	if err != nil {
		return nil, nil, err
	}
	tierCfg := serve.Config{
		Domain:      cfg.domainName,
		Objects:     objs,
		Policy:      cfg.route,
		Shards:      cfg.shards,
		Partition:   cfg.partition,
		CacheSize:   cfg.cacheSize,
		AnswerCache: cfg.answerCache,
		AnswerTTL:   cfg.answerTTL,
		DefaultBObj: crowd.Cost(cfg.bObjCents * 10),
		DefaultBPrc: crowd.Cost(cfg.bPrcDollars * 1000),
		Admission:   admission,
	}
	for i := 0; i < cfg.backends; i++ {
		// Unsharded backends get distinct seeds (independent crowds);
		// sharded tiers need replicas — every shard of a query must draw
		// the same answer streams, or the scattered estimates would
		// depend on which backend a shard landed on.
		seed := cfg.seed + int64(i)
		if cfg.shards > 1 {
			seed = cfg.seed
		}
		sim, err := crowd.NewSim(u, crowd.SimOptions{
			Seed:             seed,
			SpamRate:         cfg.spam,
			FilterEfficiency: cfg.filterEff,
		})
		if err != nil {
			return nil, nil, err
		}
		tierCfg.Backends = append(tierCfg.Backends, serve.Backend{
			Name:     fmt.Sprintf("sim-%d", i),
			Platform: sim,
		})
	}
	tier, err := serve.New(tierCfg)
	if err != nil {
		return nil, nil, err
	}
	st := tier.Stats()
	fmt.Printf("serving %q query tier on http://%s (%d backends, policy %s, %d shard(s) via %s, stats at %s)\n",
		cfg.domainName, cfg.addr, cfg.backends, st.Policy, st.Shards, st.Partition, crowdhttp.PathServeStats)
	if cfg.register > 0 {
		fmt.Printf("registered database objects: ids %d..%d\n", objs[0].ID, objs[len(objs)-1].ID)
	}
	return crowdhttp.NewQueryServer(tier).Handler(), func() interface{} { return tier.Stats() }, nil
}
