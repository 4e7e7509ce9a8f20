// Package query provides the query-evaluation layer the paper's
// introduction motivates: SQL-like SELECT/WHERE statements over object
// attributes that are not in the database, evaluated by estimating the
// referenced attributes with a DisQ plan.
//
// A statement like
//
//	SELECT Calories, Protein WHERE Dessert > 0.5 AND Calories < 350
//
// is parsed into a Statement; its referenced attributes become the DisQ
// query targets; and Engine.Execute evaluates every object online, filters
// by the WHERE conjunction and returns the selected values — the CC
// ("CrowdCooking.com") search upgrade of Section 1.
package query

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
)

// Op is a comparison operator in a WHERE condition.
type Op int

// Supported operators.
const (
	Lt Op = iota // <
	Le           // <=
	Gt           // >
	Ge           // >=
	Eq           // =
	Ne           // !=
)

// String renders the operator in SQL syntax.
func (o Op) String() string {
	switch o {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "="
	case Ne:
		return "!="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

var opTokens = map[string]Op{
	"<": Lt, "<=": Le, ">": Gt, ">=": Ge, "=": Eq, "==": Eq, "!=": Ne, "<>": Ne,
}

// Condition is one WHERE comparison against a constant.
type Condition struct {
	Attr  string
	Op    Op
	Value float64
}

// Holds evaluates the condition against an estimated value. Equality uses
// a relative tolerance: estimates are continuous, so exact float equality
// would never hold.
func (c Condition) Holds(v float64) bool {
	switch c.Op {
	case Lt:
		return v < c.Value
	case Le:
		return v <= c.Value
	case Gt:
		return v > c.Value
	case Ge:
		return v >= c.Value
	case Eq:
		return approxEqual(v, c.Value)
	case Ne:
		return !approxEqual(v, c.Value)
	default:
		return false
	}
}

// approxEqual holds when a and b differ by at most 5% of the larger
// magnitude of the two (floored at 1, so near-zero comparisons keep an
// absolute band). Scaling by the max magnitude keeps the relation
// symmetric — approxEqual(a, b) == approxEqual(b, a) — where scaling by
// one side made `a = b` and `b = a` disagree whenever the operands
// straddled the tolerance.
func approxEqual(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		scale = 1
	}
	return diff <= 0.05*scale
}

// String renders the condition.
func (c Condition) String() string {
	return fmt.Sprintf("%s %s %g", c.Attr, c.Op, c.Value)
}

// OrderBy is a statement's ORDER BY clause: the sort attribute and
// direction (ascending unless Desc).
type OrderBy struct {
	Attr string
	Desc bool
}

// String renders the clause body ("attr ASC"/"attr DESC").
func (o OrderBy) String() string {
	if o.Desc {
		return o.Attr + " DESC"
	}
	return o.Attr + " ASC"
}

// Statement is a parsed query: the attributes to return, a conjunction
// of filter conditions, and an optional ORDER BY/LIMIT trailer.
type Statement struct {
	Select []string
	Where  []Condition
	// Order, when non-nil, sorts the result rows by the named attribute's
	// estimate; Limit (valid only with Order) truncates to the top k.
	Order *OrderBy
	Limit int
}

// Attributes returns every attribute the statement references (selected,
// filtered or ordered by), deduplicated and sorted — these are the DisQ
// targets.
func (s *Statement) Attributes() []string {
	set := make(map[string]struct{})
	for _, a := range s.Select {
		set[a] = struct{}{}
	}
	for _, c := range s.Where {
		set[c.Attr] = struct{}{}
	}
	if s.Order != nil {
		set[s.Order.Attr] = struct{}{}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Query returns the core.Query that a plan must be preprocessed for.
func (s *Statement) Query() core.Query {
	return core.Query{Targets: s.Attributes()}
}

// String renders the statement in its canonical SQL-like syntax.
func (s *Statement) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(strings.Join(s.Select, ", "))
	if len(s.Where) > 0 {
		b.WriteString(" WHERE ")
		parts := make([]string, len(s.Where))
		for i, c := range s.Where {
			parts[i] = c.String()
		}
		b.WriteString(strings.Join(parts, " AND "))
	}
	if s.Order != nil {
		b.WriteString(" ORDER BY ")
		b.WriteString(s.Order.String())
		if s.Limit > 0 {
			fmt.Fprintf(&b, " LIMIT %d", s.Limit)
		}
	}
	return b.String()
}

// isKw reports a case-insensitive keyword match.
func isKw(tok string, kws ...string) bool {
	for _, kw := range kws {
		if strings.EqualFold(tok, kw) {
			return true
		}
	}
	return false
}

// Parse reads a statement of the form
//
//	SELECT attr[, attr...]
//	    [WHERE attr op value [AND attr op value ...]]
//	    [ORDER BY attr [ASC|DESC] [LIMIT k]]
//
// Attribute names may contain spaces (e.g. "Has Meat"); they extend until
// the next comma, operator or keyword. Keywords are case-insensitive;
// WHERE, AND, ORDER, BY, ASC, DESC and LIMIT are reserved and cannot
// start an attribute name.
func Parse(input string) (*Statement, error) {
	tokens := tokenize(input)
	if len(tokens) == 0 {
		return nil, errors.New("query: empty statement")
	}
	if !isKw(tokens[0], "select") {
		return nil, fmt.Errorf("query: expected SELECT, got %q", tokens[0])
	}
	pos := 1
	st := &Statement{}

	// SELECT list: names separated by commas, until WHERE, the ORDER
	// BY/LIMIT trailer, or end.
	var current []string
	flush := func() error {
		if len(current) == 0 {
			return errors.New("query: empty name in SELECT list")
		}
		st.Select = append(st.Select, strings.Join(current, " "))
		current = nil
		return nil
	}
	for pos < len(tokens) && !isKw(tokens[pos], "where", "order", "limit") {
		tok := tokens[pos]
		if tok == "," {
			if err := flush(); err != nil {
				return nil, err
			}
		} else {
			current = append(current, tok)
		}
		pos++
	}
	if err := flush(); err != nil {
		return nil, err
	}

	if pos < len(tokens) && isKw(tokens[pos], "where") {
		pos++ // consume WHERE
		// Conditions separated by AND, until the trailer or end.
		for {
			cond, next, err := parseCondition(tokens, pos)
			if err != nil {
				return nil, err
			}
			st.Where = append(st.Where, cond)
			pos = next
			if pos == len(tokens) || isKw(tokens[pos], "order", "limit") {
				break
			}
			if !isKw(tokens[pos], "and") {
				return nil, fmt.Errorf("query: expected AND, got %q", tokens[pos])
			}
			pos++
			if pos == len(tokens) {
				return nil, errors.New("query: dangling AND")
			}
		}
	}

	pos, err := parseOrderLimit(tokens, pos, st)
	if err != nil {
		return nil, err
	}
	if pos != len(tokens) {
		return nil, fmt.Errorf("query: unexpected %q after statement", tokens[pos])
	}
	return st, nil
}

// parseOrderLimit consumes the optional ORDER BY attr [ASC|DESC]
// [LIMIT k] trailer into st, returning the next position.
func parseOrderLimit(tokens []string, pos int, st *Statement) (int, error) {
	if pos < len(tokens) && isKw(tokens[pos], "limit") {
		return 0, errors.New("query: LIMIT without ORDER BY")
	}
	if pos == len(tokens) || !isKw(tokens[pos], "order") {
		return pos, nil
	}
	pos++ // consume ORDER
	if pos == len(tokens) || !isKw(tokens[pos], "by") {
		return 0, errors.New("query: expected BY after ORDER")
	}
	pos++ // consume BY

	// The sort attribute extends until a direction keyword, LIMIT or end.
	var name []string
	for pos < len(tokens) && !isKw(tokens[pos], "asc", "desc", "limit") {
		name = append(name, tokens[pos])
		pos++
	}
	if len(name) == 0 {
		return 0, errors.New("query: dangling ORDER BY (missing attribute)")
	}
	st.Order = &OrderBy{Attr: strings.Join(name, " ")}
	if pos < len(tokens) && isKw(tokens[pos], "asc", "desc") {
		st.Order.Desc = isKw(tokens[pos], "desc")
		pos++
		if pos < len(tokens) && !isKw(tokens[pos], "limit") {
			return 0, fmt.Errorf("query: unknown direction or trailing %q after ORDER BY %s (want LIMIT or end)",
				tokens[pos], st.Order)
		}
	}
	if pos == len(tokens) {
		return pos, nil
	}
	pos++ // consume LIMIT
	if pos == len(tokens) {
		return 0, errors.New("query: LIMIT missing count")
	}
	n, err := strconv.Atoi(tokens[pos])
	if err != nil {
		return 0, fmt.Errorf("query: bad LIMIT %q (want a positive integer)", tokens[pos])
	}
	if n <= 0 {
		return 0, fmt.Errorf("query: LIMIT must be positive, got %d", n)
	}
	st.Limit = n
	return pos + 1, nil
}

func parseCondition(tokens []string, pos int) (Condition, int, error) {
	var name []string
	for pos < len(tokens) {
		if _, isOp := opTokens[tokens[pos]]; isOp {
			break
		}
		name = append(name, tokens[pos])
		pos++
	}
	if len(name) == 0 {
		return Condition{}, 0, errors.New("query: condition missing attribute name")
	}
	if pos == len(tokens) {
		return Condition{}, 0, fmt.Errorf("query: condition on %q missing operator", strings.Join(name, " "))
	}
	op := opTokens[tokens[pos]]
	pos++
	if pos == len(tokens) {
		return Condition{}, 0, errors.New("query: condition missing value")
	}
	v, err := strconv.ParseFloat(tokens[pos], 64)
	if err != nil {
		// Convenience: allow true/false for boolean attributes.
		switch strings.ToLower(tokens[pos]) {
		case "true":
			v = 1
		case "false":
			v = 0
		default:
			return Condition{}, 0, fmt.Errorf("query: bad value %q", tokens[pos])
		}
	}
	pos++
	return Condition{Attr: strings.Join(name, " "), Op: op, Value: v}, pos, nil
}

// tokenize splits on whitespace but keeps commas and operators as their
// own tokens.
func tokenize(s string) []string {
	var out []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	runes := []rune(s)
	for i := 0; i < len(runes); i++ {
		r := runes[i]
		switch {
		case r == ' ' || r == '\t' || r == '\n':
			flush()
		case r == ',':
			flush()
			out = append(out, ",")
		case r == '<' || r == '>' || r == '=' || r == '!':
			flush()
			op := string(r)
			if i+1 < len(runes) && (runes[i+1] == '=' || (r == '<' && runes[i+1] == '>')) {
				op += string(runes[i+1])
				i++
			}
			out = append(out, op)
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return out
}

// ResultRow is one object that passed the WHERE filter, with its selected
// attribute estimates.
type ResultRow struct {
	Object *domain.Object
	Values map[string]float64
	// Key is the ORDER BY attribute's estimate when the statement has an
	// Order clause (zero otherwise). It is carried on the row so sharded
	// gathers can re-merge rankings without re-estimating.
	Key float64
}

// sortRows stably sorts rows by Key (descending when desc). Stability
// matters: equal keys keep evaluation order, which is the tie-break the
// sharded gather reproduces via object rank.
func sortRows(rows []ResultRow, desc bool) {
	sort.SliceStable(rows, func(i, j int) bool {
		if desc {
			return rows[i].Key > rows[j].Key
		}
		return rows[i].Key < rows[j].Key
	})
}

// Stats is the engine's one counter record (see adaptive.Stats): every
// evaluation path — fixed, adaptive, lazy, with or without an answer
// memo — books into it.
type Stats = adaptive.Stats

// Engine evaluates statements with a preprocessed plan over a platform.
// Every mode runs over one adaptive.Evaluator per Execute: the
// fixed-budget one unless the engine is adaptive, reading through the
// answer memo when one is attached; the lazy modes settle their
// survivors through it.
type Engine struct {
	platform crowd.Platform
	plan     *core.Plan
	adaptive *adaptive.Config
	lazy     *LazyConfig
	// memo, when set, shares answer prefixes within and across
	// statements (see reuse.go).
	memo AnswerMemo
	// stats carries the last Execute's counters.
	stats Stats
}

// NewEngine validates that the plan covers every attribute the statement
// will need and returns an engine. The plan's targets must be a superset
// of the statement's attributes (after platform canonicalization).
func NewEngine(p crowd.Platform, plan *core.Plan, st *Statement) (*Engine, error) {
	if p == nil || plan == nil || st == nil {
		return nil, errors.New("query: nil platform, plan or statement")
	}
	if len(st.Select) == 0 {
		return nil, errors.New("query: statement selects nothing")
	}
	covered := make(map[string]bool, len(plan.Targets))
	for _, t := range plan.Targets {
		covered[p.Canonical(t)] = true
	}
	for _, a := range st.Attributes() {
		if !covered[p.Canonical(a)] {
			return nil, fmt.Errorf("query: plan does not cover attribute %q", a)
		}
	}
	return &Engine{platform: p, plan: plan}, nil
}

// SetAdaptive switches the engine onto the adaptive online evaluator
// (internal/adaptive): sequential stopping, reliability weighting and
// budget reallocation per the config. Call with nil to restore the
// fixed-budget path. The adaptive evaluator (and its savings pool) is
// scoped to one Execute call — the natural session boundary. Under a
// lazy mode it runs without the calibration pilot, which would ask the
// whole support at full budget.
func (e *Engine) SetAdaptive(cfg *adaptive.Config) { e.adaptive = cfg }

// SetLazy switches the engine onto the lazy predicate-ordered evaluator
// (see lazy.go): WHERE predicates are paid for one at a time in
// cheapest-rejection-first order, objects short-circuit on the first
// failed predicate, and ORDER BY/LIMIT statements prune candidates whose
// confidence bound cannot enter the top k. Call with nil to restore the
// eager path.
func (e *Engine) SetLazy(cfg *LazyConfig) { e.lazy = cfg }

// SetReuse attaches an answer memo: answer prefixes are served from it
// and the ones bought are stored in it, so answers shared across
// predicates, statements and sessions are bought at most once. Call with
// nil to detach. With a memo attached a warm Execute returns rows
// bit-equal to a cold one at lower spend (the deterministic-crowd
// contract adaptive.AnswerMemo documents).
func (e *Engine) SetReuse(m AnswerMemo) { e.memo = m }

// Stats returns the counters of the last Execute.
func (e *Engine) Stats() Stats { return e.stats }

// Execute estimates the statement's attributes for every object (spending
// the plan's per-object budget each) and returns the rows whose estimates
// satisfy every WHERE condition, with the SELECTed values.
func (e *Engine) Execute(st *Statement, objects []*domain.Object) ([]ResultRow, error) {
	e.stats = Stats{}
	sup, err := adaptive.NewSupport(e.platform, e.plan, e.memo)
	if err != nil {
		return nil, err
	}
	cfg := adaptive.Disabled()
	if e.adaptive != nil {
		cfg = *e.adaptive
	}
	ev := sup.Evaluator(cfg)
	rows, err := e.run(st, objects, sup, ev)
	e.stats.Add(ev.Stats())
	if err != nil {
		return nil, err
	}
	return orderRows(st, rows), nil
}

// run evaluates every object and keeps the rows that pass.
func (e *Engine) run(st *Statement, objects []*domain.Object, sup *adaptive.Support, ev *adaptive.Evaluator) ([]ResultRow, error) {
	eval, err := e.evaluator(st, objects, sup, ev)
	if err != nil {
		return nil, err
	}
	var rows []ResultRow
	for _, o := range objects {
		row, keep, err := eval(o)
		if err != nil {
			return nil, err
		}
		if keep {
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// evaluator returns the engine's per-object evaluation. The lazy modes
// decide WHERE predicates one at a time (see lazy.go) and book into
// e.stats; every other mode estimates the whole support through the
// evaluator, which books its own counters, before it filters.
func (e *Engine) evaluator(st *Statement, objects []*domain.Object, sup *adaptive.Support, ev *adaptive.Evaluator) (func(*domain.Object) (ResultRow, bool, error), error) {
	if e.lazy != nil {
		cfg := e.lazy.withDefaults()
		if !(cfg.Z > 0) { // rejects NaN and negatives; +Inf allowed
			return nil, fmt.Errorf("query: lazy Z must be > 0, got %v", cfg.Z)
		}
		if cfg.ShortCircuit || cfg.earlyStop() {
			r, err := newLazyRun(e, st, cfg, sup, ev)
			if err != nil {
				return nil, err
			}
			return r.object, nil
		}
	} else if err := ev.Calibrate(objects); err != nil {
		return nil, err
	}
	return func(o *domain.Object) (ResultRow, bool, error) {
		est, err := ev.Estimate(o)
		if err != nil {
			return ResultRow{}, false, err
		}
		row, keep := e.buildRow(st, o, est)
		return row, keep, nil
	}, nil
}

// buildRow applies the WHERE conjunction to one object's estimates and,
// when it passes, assembles its result row (selected values plus the
// ORDER BY key), for every path that estimates the whole support first.
func (e *Engine) buildRow(st *Statement, o *domain.Object, est map[string]float64) (ResultRow, bool) {
	canon := e.platform.Canonical
	for _, c := range st.Where {
		if !c.Holds(est[canon(c.Attr)]) {
			return ResultRow{}, false
		}
	}
	vals := make(map[string]float64, len(st.Select))
	for _, a := range st.Select {
		vals[a] = est[canon(a)]
	}
	row := ResultRow{Object: o, Values: vals}
	if st.Order != nil {
		row.Key = est[canon(st.Order.Attr)]
	}
	return row, true
}

// orderRows applies the statement's ORDER BY/LIMIT trailer to rows in
// place, returning the (possibly truncated) slice. Statements without an
// Order clause are returned untouched.
func orderRows(st *Statement, rows []ResultRow) []ResultRow {
	if st.Order == nil {
		return rows
	}
	sortRows(rows, st.Order.Desc)
	if st.Limit > 0 && len(rows) > st.Limit {
		rows = rows[:st.Limit]
	}
	return rows
}
