package core

import (
	"fmt"
	"time"

	"repro/internal/crowd"
)

// TraceEvent describes one decision of the preprocessing phase, for
// observability: which attribute was dismantled, what the crowd answered,
// what verification decided, when and why discovery stopped, and what the
// budget distribution and regressions came out as.
type TraceEvent struct {
	// Kind classifies the event; see the Trace* constants.
	Kind string
	// Attribute is the attribute the event concerns (when applicable).
	Attribute string
	// Detail is a human-readable description.
	Detail string
	// Spent is the preprocessing spend when the event fired.
	Spent crowd.Cost
	// Phase carries the aggregated per-phase profile on TracePhase events
	// (nil otherwise).
	Phase *PhaseStats
}

// Trace event kinds.
const (
	TraceExamples   = "examples"   // example streams collected
	TraceDismantle  = "dismantle"  // a dismantling question was asked
	TraceVerify     = "verify"     // a verification test concluded
	TraceAttribute  = "attribute"  // a new attribute entered the set
	TraceStop       = "stop"       // discovery stopped
	TraceBudget     = "budget"     // the budget distribution was derived
	TraceRegression = "regression" // a regression was learned
	TracePhase      = "phase"      // per-phase profile (wall time, questions, cost)
)

// Preprocessing phase names, in execution order. Dismantling, verification
// and statistics collection interleave inside the discovery loop, so their
// profiles aggregate the per-iteration slices.
const (
	PhaseCollect   = "collect"   // example streams + statistics samples
	PhaseDismantle = "dismantle" // candidate scoring + dismantling questions
	PhaseVerify    = "verify"    // SPRT verification of suggested attributes
	PhaseOptimize  = "optimize"  // greedy budget-distribution search
	PhaseTrain     = "train"     // regression training (N2 examples + answers)
)

// phaseOrder is the emission order of TracePhase events.
var phaseOrder = []string{PhaseCollect, PhaseDismantle, PhaseVerify, PhaseOptimize, PhaseTrain}

// PhaseStats profiles one preprocessing phase: how long it ran (wall
// clock, aggregated over the discovery loop's iterations), how many crowd
// questions it asked and what they cost. Questions and Cost are exact
// (measured as deltas on the preprocessing ledger, which is private to the
// Preprocess call); Wall is measurement, not simulation state — it never
// feeds back into the Plan, so seeded runs stay bit-identical.
type PhaseStats struct {
	Phase     string        `json:"phase"`
	Wall      time.Duration `json:"wall_ns"`
	Questions int           `json:"questions"`
	Cost      crowd.Cost    `json:"cost_mills"`
	// Requests counts the wire round trips the phase performed —
	// distinct from Questions, since a batched transport carries many
	// questions per request. It is populated from the platform's
	// Stats().Requests (crowdhttp clients report HTTP attempts) and stays
	// 0 on in-process platforms, which is what makes
	// the batching win visible per phase: collect asks thousands of
	// questions in ~|A| requests.
	Requests int64 `json:"requests,omitempty"`
}

// String renders the profile for logs.
func (s PhaseStats) String() string {
	if s.Requests > 0 {
		return fmt.Sprintf("%s: %d questions (%d requests), %v in %v",
			s.Phase, s.Questions, s.Requests, s.Cost, s.Wall.Round(time.Microsecond))
	}
	return fmt.Sprintf("%s: %d questions, %v in %v", s.Phase, s.Questions, s.Cost, s.Wall.Round(time.Microsecond))
}

// phaseRecorder accumulates per-phase profiles during one Preprocess call.
// Preprocess runs its phases sequentially, so plain accumulation (no
// locking) is enough.
type phaseRecorder struct {
	ledger *crowd.Ledger
	// p reports the wire round-trip counter; per-phase request counts
	// are deltas of it.
	p     crowd.Platform
	stats map[string]*PhaseStats
}

func newPhaseRecorder(ledger *crowd.Ledger, p crowd.Platform) *phaseRecorder {
	return &phaseRecorder{ledger: ledger, p: p, stats: make(map[string]*PhaseStats)}
}

// totalAsked sums the ledger's question counts over every kind.
func totalAsked(l *crowd.Ledger) int {
	n := 0
	for _, k := range []crowd.QuestionKind{
		crowd.BinaryValue, crowd.NumericValue, crowd.Dismantling,
		crowd.Verification, crowd.ExampleQuestion,
	} {
		n += l.Asked(k)
	}
	return n
}

// begin opens a measurement attributed to the named phase; the returned
// closure ends it, accumulating wall time and the ledger's question/cost
// deltas. Call it exactly once, on every path out of the measured region.
func (r *phaseRecorder) begin(phase string) func() {
	spent0, asked0, req0 := r.ledger.Spent(), totalAsked(r.ledger), r.p.Stats().Requests
	start := time.Now()
	return func() {
		st := r.stats[phase]
		if st == nil {
			st = &PhaseStats{Phase: phase}
			r.stats[phase] = st
		}
		st.Wall += time.Since(start)
		st.Questions += totalAsked(r.ledger) - asked0
		st.Cost += r.ledger.Spent() - spent0
		st.Requests += r.p.Stats().Requests - req0
	}
}

// during runs f attributed to the named phase.
func (r *phaseRecorder) during(phase string, f func() error) error {
	end := r.begin(phase)
	defer end()
	return f()
}

// profile returns the accumulated stats in canonical phase order (phases
// that never ran are included with zero counts, so consumers always see
// the full breakdown).
func (r *phaseRecorder) profile() []PhaseStats {
	out := make([]PhaseStats, 0, len(phaseOrder))
	for _, ph := range phaseOrder {
		if st := r.stats[ph]; st != nil {
			out = append(out, *st)
		} else {
			out = append(out, PhaseStats{Phase: ph})
		}
	}
	return out
}

// String renders the event for logs.
func (e TraceEvent) String() string {
	if e.Attribute != "" {
		return fmt.Sprintf("[%s] %s: %s (spent %v)", e.Kind, e.Attribute, e.Detail, e.Spent)
	}
	return fmt.Sprintf("[%s] %s (spent %v)", e.Kind, e.Detail, e.Spent)
}

// tracer wraps the optional user callback.
type tracer struct {
	fn     func(TraceEvent)
	ledger *crowd.Ledger
}

// emitPhase publishes one phase profile as a TracePhase event.
func (t tracer) emitPhase(ps PhaseStats) {
	if t.fn == nil {
		return
	}
	var spent crowd.Cost
	if t.ledger != nil {
		spent = t.ledger.Spent()
	}
	t.fn(TraceEvent{
		Kind:   TracePhase,
		Detail: ps.String(),
		Spent:  spent,
		Phase:  &ps,
	})
}

func (t tracer) emit(kind, attribute, format string, args ...interface{}) {
	if t.fn == nil {
		return
	}
	var spent crowd.Cost
	if t.ledger != nil {
		spent = t.ledger.Spent()
	}
	t.fn(TraceEvent{
		Kind:      kind,
		Attribute: attribute,
		Detail:    fmt.Sprintf(format, args...),
		Spent:     spent,
	})
}
