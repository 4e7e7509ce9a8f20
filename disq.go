// Package disq is the public API of this repository's reproduction of
// "Dismantling Complicated Query Attributes with Crowd" (Laadan & Milo,
// EDBT 2015).
//
// DisQ evaluates queries whose attributes are missing from the database
// and hard for crowd workers to estimate directly. Given an offline
// preprocessing budget it uses the crowd itself — no domain expert — to
// dismantle the query attributes into finer related ones, gathers
// statistics about them, and derives (1) a per-object budget distribution
// b over attributes and (2) a linear formula per query attribute. The
// online phase then evaluates each object with at most the per-object
// budget:
//
//	o.a* = Σ l(a_i)·o.a_i^(b(a_i))    (o.a^(n) = mean of n worker answers)
//
// Quickstart against the built-in simulated crowd:
//
//	platform, _ := disq.NewSimPlatform(disq.Recipes(), disq.SimOptions{Seed: 1})
//	plan, _ := disq.Preprocess(platform,
//		disq.Query{Targets: []string{"Protein"}},
//		disq.Cents(4),    // online budget per object
//		disq.Dollars(25), // offline preprocessing budget
//		disq.Options{})
//	fmt.Println(plan.Formula("Protein"))
//	estimates, _ := plan.EstimateObject(platform, someObject)
//
// The subpackages are internal; everything a downstream user needs is
// re-exported here. See DESIGN.md for the architecture and EXPERIMENTS.md
// for the reproduced evaluation.
package disq

import (
	"math/rand"
	"net/http"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/crowdhttp"
	"repro/internal/domain"
	"repro/internal/query"
)

// Core algorithm types.
type (
	// Query names the attributes to evaluate, with optional error weights
	// (nil = the paper's ω_t = 1/Var(O.a_t)).
	Query = core.Query
	// Options tunes the DisQ pipeline; the zero value is the paper's
	// configuration (K=2, N1=200, ρ-prior 0.5, selective collection,
	// graph estimation).
	Options = core.Options
	// Plan is the preprocessing output: budget distribution, regressions,
	// discovered attributes.
	Plan = core.Plan
	// Regression is one learned linear formula.
	Regression = core.Regression
	// Assignment is the per-object budget distribution b.
	Assignment = core.Assignment
	// Statistics is the estimated (S_o, S_a, S_c) trio.
	Statistics = core.Statistics
	// TraceEvent is one preprocessing decision (set Options.Trace to
	// receive them).
	TraceEvent = core.TraceEvent
	// PhaseStats profiles one preprocessing phase (wall time, questions,
	// cost); delivered on TracePhase events.
	PhaseStats = core.PhaseStats
)

// TracePhase marks the per-phase profile events Preprocess emits at the
// end of a run (one per phase: collect, dismantle, verify, optimize,
// train; see PhaseStats).
const TracePhase = core.TracePhase

// Collection and estimation policies for multi-attribute queries
// (Section 4 of the paper).
const (
	CollectSelective     = core.CollectSelective
	CollectFull          = core.CollectFull
	CollectOneConnection = core.CollectOneConnection
	EstimateGraph        = core.EstimateGraph
	EstimateAverage      = core.EstimateAverage
)

// Crowd platform types.
type (
	// Platform is the crowd access layer (value, dismantling,
	// verification and example questions, pricing, budget ledger).
	Platform = crowd.Platform
	// SimPlatform is the deterministic simulated crowd.
	SimPlatform = crowd.SimPlatform
	// SimOptions configures the simulator (seed, spam, pricing,
	// unification, junk-answer rate).
	SimOptions = crowd.SimOptions
	// Pricing is the per-question-type payment scheme.
	Pricing = crowd.Pricing
	// Ledger tracks crowd spending against a limit.
	Ledger = crowd.Ledger
	// Cost is a monetary amount in mills (tenths of a cent).
	Cost = crowd.Cost
	// Example is an example-question result (object + true values).
	Example = crowd.Example
	// Recorder wraps a Platform and records all answers into a data table
	// (the paper's recorded-answer methodology).
	Recorder = crowd.Recorder
	// ValueQuestion is one (attribute, answer count) pair of an object's
	// online evaluation; Plan.Questions enumerates them.
	ValueQuestion = crowd.ValueQuestion
	// ObjectValueQuestion is one question of a Platform.Values batch: the
	// first N answers about an attribute of an object, optionally with
	// the worker behind each answer.
	ObjectValueQuestion = crowd.ObjectValueQuestion
	// ValueAnswers answers one ObjectValueQuestion.
	ValueAnswers = crowd.ValueAnswers
	// PlatformStats counts a platform stack's wire round trips and fault
	// handling (Platform.Stats).
	PlatformStats = crowd.Stats
)

// NewBatchedPlatform adapts a platform's batching: size > 0 chunks value
// batches to at most size questions, size < 0 sends one question per
// exchange (the unbatched control for benchmarks), size 0 returns p
// unchanged. Answers are byte-identical in every mode.
func NewBatchedPlatform(p Platform, size int) Platform { return crowd.NewBatched(p, size) }

// NewRecorder wraps a platform with answer recording.
func NewRecorder(p Platform) *Recorder { return crowd.NewRecorder(p) }

// Money denominations.
const (
	Mill   = crowd.Mill
	Cent   = crowd.Cent
	Dollar = crowd.Dollar
)

// Domain model types.
type (
	// Universe is a generative object domain with ground truth.
	Universe = domain.Universe
	// Object is one object of a universe.
	Object = domain.Object
	// Attribute describes one attribute of a universe.
	Attribute = domain.Attribute
	// SyntheticConfig parameterizes the synthetic domain generator.
	SyntheticConfig = domain.SyntheticConfig
	// UniverseConfig assembles a custom universe.
	UniverseConfig = domain.Config
	// DismantleAnswer is one entry of a dismantling-answer distribution.
	DismantleAnswer = domain.DismantleAnswer
)

// Cents builds a Cost from (possibly fractional) cents.
func Cents(c float64) Cost { return crowd.Cents(c) }

// Dollars builds a Cost from dollars.
func Dollars(d float64) Cost { return crowd.Dollars(d) }

// DefaultPricing is the paper's Section 5.1 payment scheme.
func DefaultPricing() Pricing { return crowd.DefaultPricing() }

// NewLedger returns a budget ledger with the given limit (0 = unlimited).
func NewLedger(limit Cost) *Ledger { return crowd.NewLedger(limit) }

// NewSimPlatform builds the simulated crowd over a universe.
func NewSimPlatform(u *Universe, opts SimOptions) (*SimPlatform, error) {
	return crowd.NewSim(u, opts)
}

// NewUniverse assembles a custom universe from a configuration.
func NewUniverse(cfg UniverseConfig) (*Universe, error) { return domain.New(cfg) }

// Built-in domains of the paper's evaluation.
func Pictures() *Universe { return domain.Pictures() }

// Recipes is the allrecipes.com-style domain.
func Recipes() *Universe { return domain.Recipes() }

// Houses is the hedonic house-prices domain (coverage experiment).
func Houses() *Universe { return domain.Houses() }

// Laptops is the hedonic laptop-prices domain (coverage experiment).
func Laptops() *Universe { return domain.Laptops() }

// Synthetic generates a random universe (Section 5.1, "Synthetic Data").
func Synthetic(rng *rand.Rand, cfg SyntheticConfig) (*Universe, error) {
	return domain.Synthetic(rng, cfg)
}

// Preprocess runs DisQ's offline phase (Algorithm 1 + the Section 4
// multi-target extension): spend at most preprocessBudget on the platform
// to derive a Plan whose online evaluation costs at most perObjectBudget
// per object.
func Preprocess(p Platform, q Query, perObjectBudget, preprocessBudget Cost, opts Options) (*Plan, error) {
	return core.Preprocess(p, q, perObjectBudget, preprocessBudget, opts)
}

// EvaluateObjects runs the online phase of a plan over a set of objects,
// returning one estimate map (target → value) per object.
func EvaluateObjects(p Platform, plan *Plan, objects []*Object) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(objects))
	for i, o := range objects {
		est, err := plan.EstimateObject(p, o)
		if err != nil {
			return nil, err
		}
		out[i] = est
	}
	return out, nil
}

// EvaluateBatch is EvaluateObjects with bounded concurrency — the
// throughput shape of a real deployment, where each object's questions
// wait on crowd latency. Results are in input order.
func EvaluateBatch(p Platform, plan *Plan, objects []*Object, parallelism int) ([]map[string]float64, error) {
	return core.EvaluateBatch(p, plan, objects, parallelism)
}

// LoadPlan reads a plan previously stored with Plan.Save, so an expensive
// preprocessing phase can be amortized across sessions.
func LoadPlan(path string) (*Plan, error) { return core.LoadPlan(path) }

// SplitOption is one explored division of a total budget between the
// offline and online phases.
type SplitOption = core.SplitOption

// AdviseBudgetSplit explores how to divide a total budget between
// preprocessing and per-object spending for a workload of `objects`
// objects — the open question of the paper's Section 7. See
// core.AdviseBudgetSplit for the factory semantics.
func AdviseBudgetSplit(factory func() (Platform, error), q Query, total Cost, objects int, fractions []float64, opts Options) ([]SplitOption, error) {
	return core.AdviseBudgetSplit(func() (crowd.Platform, error) { return factory() },
		q, total, objects, fractions, opts)
}

// Query-evaluation layer (SELECT ... WHERE ... over crowd-estimated
// attributes; see internal/query).
type (
	// Statement is a parsed SELECT/WHERE query.
	Statement = query.Statement
	// Condition is one WHERE comparison.
	Condition = query.Condition
	// QueryEngine executes statements with a preprocessed plan.
	QueryEngine = query.Engine
	// ResultRow is one object passing the filter, with selected values.
	ResultRow = query.ResultRow
)

// ParseQuery parses "SELECT a, b WHERE c > 1 AND d <= 0.5".
func ParseQuery(s string) (*Statement, error) { return query.Parse(s) }

// NewQueryEngine validates that the plan covers the statement and returns
// an executor.
func NewQueryEngine(p Platform, plan *Plan, st *Statement) (*QueryEngine, error) {
	return query.NewEngine(p, plan, st)
}

// Remote crowd platform (HTTP adapter; see internal/crowdhttp).
type (
	// CrowdServer exposes a Platform over HTTP, with idempotent replay of
	// retried requests and optional fault injection.
	CrowdServer = crowdhttp.Server
	// CrowdClient implements Platform against a CrowdServer, with local
	// transactional budgeting, answer caching and a retrying transport.
	CrowdClient = crowdhttp.Client
	// CrowdClientOptions tunes the client's retry/timeout transport.
	CrowdClientOptions = crowdhttp.Options
	// CrowdFaultOptions configures request-level fault injection on a
	// CrowdServer (503s, dropped responses, latency, fail-after-N).
	CrowdFaultOptions = crowdhttp.FaultOptions
	// TransportStats are a CrowdClient's transport counters (requests,
	// retries, batches, coalesced flushes) — the observability hooks the
	// round-trip benchmarks assert against.
	TransportStats = crowdhttp.TransportStats
	// ServerStats are a CrowdServer's counters, also served at /v1/stats.
	ServerStats = crowdhttp.ServerStats
)

// NewCrowdServer wraps a platform for serving; mount Handler() on an
// http.Server.
func NewCrowdServer(p Platform) *CrowdServer { return crowdhttp.NewServer(p) }

// NewFaultyCrowdServer is NewCrowdServer plus seeded request-level fault
// injection, for rehearsing deployments against a flaky crowd service.
func NewFaultyCrowdServer(p Platform, f CrowdFaultOptions) *CrowdServer {
	return crowdhttp.NewFaultyServer(p, f)
}

// NewCrowdClient returns a Platform speaking to a CrowdServer at baseURL
// (nil httpClient = http.DefaultClient) with default transport options.
func NewCrowdClient(baseURL string, httpClient *http.Client) *CrowdClient {
	return crowdhttp.NewClient(baseURL, httpClient)
}

// NewCrowdClientWithOptions is NewCrowdClient with explicit retry/timeout
// options.
func NewCrowdClientWithOptions(baseURL string, httpClient *http.Client, opts CrowdClientOptions) *CrowdClient {
	return crowdhttp.NewClientWithOptions(baseURL, httpClient, opts)
}

// Fault injection on any Platform (see internal/crowd).
type (
	// FaultyPlatform injects seeded transient errors, latency and short
	// batches into a Platform.
	FaultyPlatform = crowd.FaultyPlatform
	// FaultyOptions configures FaultyPlatform.
	FaultyOptions = crowd.FaultyOptions
	// RetryPlatform recovers from transient platform failures in-process.
	RetryPlatform = crowd.RetryPlatform
	// RetryOptions configures RetryPlatform.
	RetryOptions = crowd.RetryOptions
	// FaultStats counts injected faults and retry recoveries.
	FaultStats = crowd.FaultStats
)

// ErrTransientCrowd marks transient (retryable) platform failures.
var ErrTransientCrowd = crowd.ErrTransient

// NewFaultyPlatform wraps a platform with seeded fault injection.
func NewFaultyPlatform(p Platform, opts FaultyOptions) *FaultyPlatform {
	return crowd.NewFaulty(p, opts)
}

// NewRetryPlatform wraps a platform with transparent retries of transient
// failures.
func NewRetryPlatform(p Platform, opts RetryOptions) *RetryPlatform {
	return crowd.NewRetry(p, opts)
}

// RefObject returns a reference-only object for addressing server-side
// objects by id through a CrowdClient.
func RefObject(id int) *Object { return domain.RefObject(id) }

// Adaptive online budgets (sequential stopping, reliability weighting,
// bandit reallocation; see internal/adaptive and DESIGN.md §9).
type (
	// AdaptiveConfig tunes the adaptive online evaluator.
	AdaptiveConfig = adaptive.Config
	// AdaptiveEvaluator evaluates plan objects with adaptive per-object
	// spend; with stopping disabled it takes the fixed path itself.
	AdaptiveEvaluator = adaptive.Evaluator
	// AdaptiveStats is the online phase's one counter record (asked,
	// skipped, boosted, reused, pruned questions), returned by both
	// AdaptiveEvaluator.Stats and QueryEngine.Stats.
	AdaptiveStats = adaptive.Stats
)

// AdaptiveDefaults is the everything-on adaptive tuning.
func AdaptiveDefaults() AdaptiveConfig { return adaptive.Defaults() }

// AdaptiveDisabled is the determinism-pinned tuning: the evaluator
// takes the fixed-budget path, one exchange per object.
func AdaptiveDisabled() AdaptiveConfig { return adaptive.Disabled() }

// NewAdaptiveEvaluator builds an adaptive evaluator over a preprocessed
// plan. Call Calibrate before Estimate to enable reliability weighting
// on platforms that report worker identities.
func NewAdaptiveEvaluator(p Platform, plan *Plan, cfg AdaptiveConfig) (*AdaptiveEvaluator, error) {
	return adaptive.New(p, plan, cfg)
}
