package query_test

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
	"repro/internal/query"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// exchangeRecorder writes every Values exchange that passes through it
// into a transcript: one line per exchange listing each question's
// (object id, attribute, N, Workers).
type exchangeRecorder struct {
	crowd.Platform
	log       *strings.Builder
	exchanges int
	questions int
}

func (r *exchangeRecorder) Values(qs []crowd.ObjectValueQuestion) ([]crowd.ValueAnswers, error) {
	r.exchanges++
	r.questions += len(qs)
	for _, q := range qs {
		fmt.Fprintf(r.log, "%d/%s/%d/%t;", q.Object.ID, q.Attr, q.N, q.Workers)
	}
	r.log.WriteByte('\n')
	return r.Platform.Values(qs)
}

func (r *exchangeRecorder) summary() string {
	h := fnv.New64a()
	h.Write([]byte(r.log.String()))
	return fmt.Sprintf("exchanges %d questions %d transcript %016x", r.exchanges, r.questions, h.Sum64())
}

// onModeEnv is the lazy and adaptive test environment (simulator seed
// 99, 24 objects from seed 17) behind an exchange recorder.
func onModeEnv(t *testing.T) (*exchangeRecorder, *crowd.SimPlatform, []*domain.Object) {
	t.Helper()
	sim, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	objs := sim.Universe().NewObjects(rand.New(rand.NewSource(17)), 24)
	return &exchangeRecorder{Platform: sim, log: &strings.Builder{}}, sim, objs
}

func bits(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

func writeRows(b *strings.Builder, rows []query.ResultRow) {
	for _, r := range rows {
		fmt.Fprintf(b, "  row %d key %s", r.Object.ID, bits(r.Key))
		attrs := make([]string, 0, len(r.Values))
		for a := range r.Values {
			attrs = append(attrs, a)
		}
		sort.Strings(attrs)
		for _, a := range attrs {
			fmt.Fprintf(b, " %s=%s", a, bits(r.Values[a]))
		}
		b.WriteByte('\n')
	}
}

// adaptiveCounters lists the adaptive evaluator's counters.
func adaptiveCounters(s adaptive.Stats) string {
	return fmt.Sprintf("asked %d saved %d boosted %d pool_mills %d calibrated_workers %d",
		s.QuestionsAsked, s.QuestionsSkipped, s.Boosted, s.PoolMills, s.CalibratedWorkers)
}

// lazyCounters lists the lazy evaluator's and the answer memo's
// counters of the engine's last Execute.
func lazyCounters(eng *query.Engine) string {
	s := eng.Stats()
	return fmt.Sprintf("objects %d short_circuited %d pruned %d predicates_early %d asked %d skipped %d reused %d spend_saved_mills %d",
		s.Objects, s.ObjectsShortCircuited, s.ObjectsPruned, s.PredicatesEarly,
		s.QuestionsAsked, s.QuestionsSkipped, s.AnswersReused, s.SpendSavedMills)
}

// TestLazyAdaptiveReuseOnModesGolden pins the approximate ("on") modes
// of the adaptive and lazy evaluators, and the lazy evaluator over a
// warm answer memo, to recorded output (testdata/onmodes_golden.txt):
// for each mode the result rows to the bit, the online spend, every
// counter and a hash of the transcript of Values exchanges. Unlike the
// off-mode pins, which compare two paths of the current code, this one
// compares against a fixed recording, so a refactor of the acquisition
// loop that changes which questions are asked, in which exchanges, or
// what they cost fails here. Run with -update to re-record after a
// deliberate change.
func TestLazyAdaptiveReuseOnModesGolden(t *testing.T) {
	benchLazy := &query.LazyConfig{
		ShortCircuit: true, Reorder: true, Z: 1.96,
		MinAnswers: 2, Rounds: 4, TopKPrune: true, DropTol: 0.3,
	}
	stopOnly := adaptive.Defaults()
	stopOnly.Weight, stopOnly.Reallocate = false, false
	const (
		topK    = "SELECT Calories WHERE Dessert > 0.5 ORDER BY Protein DESC LIMIT 5"
		filter2 = "SELECT Protein WHERE Dessert > 0.5 AND Calories < 250"
		pureTop = "SELECT Calories ORDER BY Protein DESC LIMIT 5"
	)
	plans := map[string]*core.Plan{}
	planFor := func(st *query.Statement) *core.Plan {
		key := strings.Join(st.Attributes(), ",")
		if plans[key] == nil {
			plans[key] = lazyPlan(t, st)
		}
		return plans[key]
	}

	var b strings.Builder
	engineMode := func(name, stmt string, setup func(*query.Engine), counters func(*query.Engine) string) {
		st := mustParse(t, stmt)
		plan := planFor(st)
		rec, sim, objs := onModeEnv(t)
		eng, err := query.NewEngine(rec, plan, st)
		if err != nil {
			t.Fatal(err)
		}
		setup(eng)
		rows, err := eng.Execute(st, objs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "mode %s: %s\n  spend %d\n  %s\n  %s\n", name, stmt, sim.Ledger().Spent(), counters(eng), rec.summary())
		writeRows(&b, rows)
	}
	adaptiveEngine := func(cfg adaptive.Config) func(*query.Engine) {
		return func(eng *query.Engine) { eng.SetAdaptive(&cfg) }
	}
	adaptiveEngineCounters := func(eng *query.Engine) string { return adaptiveCounters(eng.Stats()) }
	lazyEngine := func(cfg *query.LazyConfig) func(*query.Engine) {
		return func(eng *query.Engine) { eng.SetLazy(cfg) }
	}

	engineMode("adaptive-defaults", topK, adaptiveEngine(adaptive.Defaults()), adaptiveEngineCounters)
	engineMode("adaptive-stop-only", topK, adaptiveEngine(stopOnly), adaptiveEngineCounters)
	engineMode("lazy-defaults-topk", topK, lazyEngine(query.LazyDefaults()), lazyCounters)
	engineMode("lazy-defaults-filter2", filter2, lazyEngine(query.LazyDefaults()), lazyCounters)
	engineMode("lazy-bench-filter2", filter2, lazyEngine(benchLazy), lazyCounters)
	engineMode("lazy-bench-topk", pureTop, lazyEngine(benchLazy), lazyCounters)

	// The lazy defaults over a memo that one eager session on a separate
	// platform warmed with the first half of the objects, so the second
	// half exercises the memo's cold paths.
	warmMemo := func(stmt string) query.AnswerMemo {
		st := mustParse(t, stmt)
		_, sim, objs := onModeEnv(t)
		eng, err := query.NewEngine(sim, planFor(st), st)
		if err != nil {
			t.Fatal(err)
		}
		memo := query.NewMapMemo()
		eng.SetReuse(memo)
		if _, err := eng.Execute(st, objs[:len(objs)/2]); err != nil {
			t.Fatal(err)
		}
		return memo
	}
	engineMode("lazy-defaults-warm-memo", topK, func(eng *query.Engine) {
		eng.SetLazy(query.LazyDefaults())
		eng.SetReuse(warmMemo(topK))
	}, lazyCounters)

	// The adaptive evaluator driven directly: pilot, then one Estimate
	// per object.
	{
		st := mustParse(t, topK)
		rec, sim, objs := onModeEnv(t)
		ev, err := adaptive.New(rec, planFor(st), adaptive.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		if err := ev.Calibrate(objs); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "mode adaptive-direct: %v\n", st.Attributes())
		var est strings.Builder
		for _, o := range objs {
			m, err := ev.Estimate(o)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&est, "  estimate %d", o.ID)
			for _, a := range st.Attributes() {
				fmt.Fprintf(&est, " %s=%s", a, bits(m[a]))
			}
			est.WriteByte('\n')
		}
		fmt.Fprintf(&b, "  spend %d\n  %s\n  %s\n%s", sim.Ledger().Spent(), adaptiveCounters(ev.Stats()), rec.summary(), est.String())
	}

	const path = "testdata/onmodes_golden.txt"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("on-mode output diverged from %s at line %d:\n got %s\nwant %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("on-mode output diverged from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}
