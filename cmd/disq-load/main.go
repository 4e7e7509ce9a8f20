// Command disq-load drives query traffic at a disq-serve instance
// running in -serve-queries mode and reports throughput, tail latency
// and the plan-cache gain — the serving tier's benchmark harness, and
// the smoke gate CI runs against a live two-backend deployment.
//
// Traffic is closed-loop by default (-concurrency workers back to back);
// -rate switches to open-loop arrivals (fixed interval, independent of
// completions, arrivals beyond -concurrency outstanding are shed — the
// shape that exposes queueing collapse). Statements and SLO classes are
// cycled per arrival, so a mixed workload is one flag away. -topk k
// appends a top-k ordered statement to the mix, -lazy opts every
// session into the server's lazy predicate-ordered evaluator (the
// report then totals objects_pruned / questions_skipped), and -reuse
// opts every session into the shared answer cache (needs disq-serve
// -answer-cache > 0; the report totals answers_reused /
// spend_saved_mills).
//
// -gain additionally measures the plan cache cold/warm split: probes in
// ABBA order against fresh vs pre-warmed plan keys, medians of each
// side, reported as cold_p50 / warm_p50.
//
// Gating (for CI): -min-qps and -max-errors turn the report into an
// exit status, and -min-gain does the same for the -gain measurement.
//
// Usage:
//
//	disq-serve -serve-queries -backends 2 -addr 127.0.0.1:8080 &
//	disq-load -addr http://127.0.0.1:8080 -duration 5s
//	disq-load -addr http://127.0.0.1:8080 -statements 'SELECT Protein; SELECT Calories WHERE Dessert > 0.5'
//	disq-load -addr http://127.0.0.1:8080 -topk 3 -lazy
//	disq-load -addr http://127.0.0.1:8080 -reuse
//	disq-load -addr http://127.0.0.1:8080 -gain -min-gain 3
//	disq-load -addr http://127.0.0.1:8080 -duration 5s -min-qps 10 -max-errors 0 -json report.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/crowd"
	"repro/internal/crowdhttp"
	"repro/internal/serve"
)

// report is the JSON the harness emits: the load run, the optional gain
// measurement, and the server-side stats snapshot taken after the run.
type report struct {
	Target     string            `json:"target"`
	Statements []string          `json:"statements"`
	Classes    []string          `json:"classes,omitempty"`
	Shards     int               `json:"shards,omitempty"`
	Load       *serve.LoadReport `json:"load,omitempty"`
	Gain       *serve.CacheGain  `json:"gain,omitempty"`
	Server     *serve.Stats      `json:"server,omitempty"`
}

func main() {
	var (
		addr        = flag.String("addr", "http://127.0.0.1:8080", "disq-serve -serve-queries base URL")
		statements  = flag.String("statements", "SELECT Protein; SELECT Calories", "semicolon-separated statements, cycled per arrival")
		classes     = flag.String("classes", "", "comma-separated SLO classes, cycled per arrival (empty = interactive)")
		concurrency = flag.Int("concurrency", 8, "in-flight session bound")
		rate        = flag.Float64("rate", 0, "open-loop arrivals per second (0 = closed loop)")
		duration    = flag.Duration("duration", 5*time.Second, "load run length")
		maxObjects  = flag.Int("max-objects", 16, "objects evaluated per query (0 = all registered)")
		bObjCents   = flag.Float64("bobj-cents", 0, "per-object budget override, cents (0 = server default)")
		bPrcDollars = flag.Float64("bprc-dollars", 0, "preprocessing budget override, dollars (0 = server default)")
		adaptiveOn  = flag.Bool("adaptive", false, "opt every session into the server's adaptive online evaluator")
		lazyOn      = flag.Bool("lazy", false, "opt every session into the server's lazy predicate-ordered evaluator")
		reuseOn     = flag.Bool("reuse", false, "opt every session into the server's shared answer cache (needs disq-serve -answer-cache > 0)")
		topK        = flag.Int("topk", 0, "append 'SELECT Protein ORDER BY Protein DESC LIMIT k' to the statement mix (0 = off)")
		shards      = flag.Int("shards", 0, "per-session shard-count override (0 = server default)")

		gain       = flag.Bool("gain", false, "also measure the plan-cache cold/warm gain (first statement)")
		gainProbes = flag.Int("gain-probes", 3, "cold/warm probe pairs for -gain")

		jsonPath  = flag.String("json", "", "write the report as JSON to this file ('-' = stdout)")
		minQPS    = flag.Float64("min-qps", 0, "gate: exit 1 when qps falls below this")
		maxErrors = flag.Int64("max-errors", -1, "gate: exit 1 when errors exceed this (-1 = no gate)")
		minGain   = flag.Float64("min-gain", 0, "gate: exit 1 when -gain measures below this")
		skipLoad  = flag.Bool("no-load", false, "skip the load run (e.g. -gain only)")
	)
	flag.Parse()
	if err := run(*addr, *statements, *classes, *concurrency, *rate, *duration, *maxObjects,
		*bObjCents, *bPrcDollars, *adaptiveOn, *lazyOn, *reuseOn, *topK, *shards, *gain, *gainProbes, *jsonPath, *minQPS, *maxErrors, *minGain, *skipLoad); err != nil {
		fmt.Fprintln(os.Stderr, "disq-load:", err)
		os.Exit(1)
	}
}

func run(addr, statements, classes string, concurrency int, rate float64, duration time.Duration,
	maxObjects int, bObjCents, bPrcDollars float64, adaptiveOn, lazyOn, reuseOn bool, topK, shards int, gain bool, gainProbes int,
	jsonPath string, minQPS float64, maxErrors int64, minGain float64, skipLoad bool) error {
	stmts := splitList(statements, ";")
	if len(stmts) == 0 {
		return fmt.Errorf("-statements is empty")
	}
	if concurrency < 1 {
		return fmt.Errorf("-concurrency must be >= 1, got %d", concurrency)
	}
	if duration <= 0 {
		return fmt.Errorf("-duration must be > 0, got %v", duration)
	}
	if shards < 0 {
		return fmt.Errorf("-shards must be >= 0, got %d", shards)
	}
	if topK < 0 {
		return fmt.Errorf("-topk must be >= 0, got %d", topK)
	}
	if topK > 0 {
		stmts = append(stmts, fmt.Sprintf("SELECT Protein ORDER BY Protein DESC LIMIT %d", topK))
	}
	client := crowdhttp.NewQueryClient(strings.TrimRight(addr, "/"), nil)
	rep := &report{Target: addr, Statements: stmts, Classes: splitList(classes, ","), Shards: shards}
	bObj := crowd.Cost(bObjCents * 10)
	bPrc := crowd.Cost(bPrcDollars * 1000)

	if !skipLoad {
		load, err := serve.RunLoad(client, serve.LoadConfig{
			Statements:  stmts,
			Classes:     rep.Classes,
			Concurrency: concurrency,
			Rate:        rate,
			Duration:    duration,
			MaxObjects:  maxObjects,
			BObj:        bObj,
			BPrc:        bPrc,
			Adaptive:    adaptiveOn,
			Lazy:        lazyOn,
			Reuse:       reuseOn,
			Shards:      shards,
		})
		if err != nil {
			return err
		}
		rep.Load = load
		fmt.Printf("load: %d queries in %s  qps %.1f  p50 %s  p99 %s  cache-hits %d  errors %d  rejected %d  shed %d\n",
			load.Queries, load.Elapsed.Round(time.Millisecond), load.QPS,
			load.P50.Round(time.Microsecond), load.P99.Round(time.Microsecond),
			load.CacheHits, load.Errors, load.Rejected, load.Shed)
		if lazyOn {
			fmt.Printf("lazy: objects-pruned %d  questions-skipped %d\n",
				load.ObjectsPruned, load.QuestionsSkipped)
		}
		if reuseOn {
			fmt.Printf("reuse: answers-reused %d  spend-saved %d mills\n",
				load.AnswersReused, load.SpendSavedMills)
		}
	}

	if gain {
		g, err := serve.MeasureCacheGain(client, serve.GainConfig{
			Statement:  stmts[0],
			Probes:     gainProbes,
			MaxObjects: maxObjects,
			BObj:       bObj,
			BPrc:       bPrc,
		})
		if err != nil {
			return fmt.Errorf("gain measurement: %w", err)
		}
		rep.Gain = g
		fmt.Printf("plan cache: cold p50 %s  warm p50 %s  gain %.1fx\n",
			g.ColdP50.Round(time.Microsecond), g.WarmP50.Round(time.Microsecond), g.Gain)
	}

	if st, err := client.Stats(context.Background()); err == nil {
		rep.Server = st
	} else {
		fmt.Fprintf(os.Stderr, "disq-load: fetching server stats: %v\n", err)
	}

	if jsonPath != "" {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		out = append(out, '\n')
		if jsonPath == "-" {
			_, err = os.Stdout.Write(out)
		} else {
			err = os.WriteFile(jsonPath, out, 0o644)
		}
		if err != nil {
			return err
		}
	}

	// Gates last, so the report is always written first.
	if rep.Load != nil {
		if minQPS > 0 && rep.Load.QPS < minQPS {
			return fmt.Errorf("gate: qps %.1f below -min-qps %.1f", rep.Load.QPS, minQPS)
		}
		if maxErrors >= 0 && rep.Load.Errors > maxErrors {
			return fmt.Errorf("gate: %d errors exceed -max-errors %d", rep.Load.Errors, maxErrors)
		}
	}
	if rep.Gain != nil && minGain > 0 && rep.Gain.Gain < minGain {
		return fmt.Errorf("gate: plan cache gain %.2fx below -min-gain %.2fx", rep.Gain.Gain, minGain)
	}
	return nil
}

func splitList(s, sep string) []string {
	var out []string
	for _, part := range strings.Split(s, sep) {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
