package query

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/crowd"
	"repro/internal/domain"
)

func TestParseSelectOnly(t *testing.T) {
	st, err := Parse("SELECT Calories, Protein")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Select) != 2 || st.Select[0] != "Calories" || st.Select[1] != "Protein" {
		t.Fatalf("Select = %v", st.Select)
	}
	if len(st.Where) != 0 {
		t.Fatalf("Where = %v", st.Where)
	}
}

func TestParseMultiWordNamesAndWhere(t *testing.T) {
	st, err := Parse("select Number Of Eggs, Protein where Has Meat > 0.5 and Calories <= 350")
	if err != nil {
		t.Fatal(err)
	}
	if st.Select[0] != "Number Of Eggs" {
		t.Fatalf("multi-word select: %v", st.Select)
	}
	if len(st.Where) != 2 {
		t.Fatalf("Where = %v", st.Where)
	}
	if st.Where[0].Attr != "Has Meat" || st.Where[0].Op != Gt || st.Where[0].Value != 0.5 {
		t.Fatalf("cond 0 = %+v", st.Where[0])
	}
	if st.Where[1].Attr != "Calories" || st.Where[1].Op != Le || st.Where[1].Value != 350 {
		t.Fatalf("cond 1 = %+v", st.Where[1])
	}
}

func TestParseBooleanLiteralsAndOperators(t *testing.T) {
	st, err := Parse("SELECT Protein WHERE Dessert = true AND Spicy != false AND Healthy <> 1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Where[0].Value != 1 || st.Where[0].Op != Eq {
		t.Fatalf("true literal: %+v", st.Where[0])
	}
	if st.Where[1].Value != 0 || st.Where[1].Op != Ne {
		t.Fatalf("false literal: %+v", st.Where[1])
	}
	if st.Where[2].Op != Ne {
		t.Fatalf("<> operator: %+v", st.Where[2])
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"UPDATE x",
		"SELECT",
		"SELECT a, WHERE b > 1",
		"SELECT a WHERE > 1",
		"SELECT a WHERE b >",
		"SELECT a WHERE b > banana",
		"SELECT a WHERE b > 1 AND",
		"SELECT a WHERE b > 1 OR c < 2",
		"SELECT ,",
	}
	for _, q := range bad {
		if _, err := Parse(q); err == nil {
			t.Errorf("Parse(%q): expected error", q)
		}
	}
}

// TestParseErrorMessages pins the diagnostic each malformed statement
// produces — a served tier surfaces these verbatim to remote clients, so
// they must name the actual problem, not just fail.
func TestParseErrorMessages(t *testing.T) {
	cases := []struct {
		stmt string
		want string
	}{
		{"SELECT a WHERE b <", "missing value"},           // unterminated condition
		{"SELECT a WHERE b ~ 1", "missing operator"},      // unknown operator
		{"SELECT a WHERE", "missing attribute"},           // empty WHERE clause
		{"SELECT a WHERE b 1", "missing operator"},        // operator skipped
		{"SELECT a WHERE b < 1 c > 2", "expected AND"},    // missing conjunction
		{"SELECT a WHERE b < 1 AND", "dangling AND"},      // trailing conjunction
		{"SELECT a, , b", "empty name"},                   // empty select entry
		{"WHERE a > 1", "expected SELECT"},                // no select clause
		{"SELECT a WHERE b = maybe", `bad value "maybe"`}, // unparsable literal
	}
	for _, tc := range cases {
		_, err := Parse(tc.stmt)
		if err == nil {
			t.Errorf("Parse(%q): expected error", tc.stmt)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse(%q) = %q, want it to mention %q", tc.stmt, err, tc.want)
		}
	}
}

// TestAttributesDuplicateAcrossClauses pins deduplication when the same
// attribute appears several times in SELECT and WHERE — the plan-cache
// key builder depends on Attributes() collapsing these.
func TestAttributesDuplicateAcrossClauses(t *testing.T) {
	st, err := Parse("SELECT Protein, Protein, Calories WHERE Protein > 10 AND Calories < 400 AND Protein < 40")
	if err != nil {
		t.Fatal(err)
	}
	attrs := st.Attributes()
	if len(attrs) != 2 {
		t.Fatalf("Attributes = %v, want the 2 distinct names", attrs)
	}
	for i := 1; i < len(attrs); i++ {
		if attrs[i-1] >= attrs[i] {
			t.Fatalf("Attributes not sorted: %v", attrs)
		}
	}
	if q := st.Query(); len(q.Targets) != 2 {
		t.Fatalf("Query targets = %v", q.Targets)
	}
}

func TestStatementStringRoundTrip(t *testing.T) {
	st, err := Parse("SELECT Calories WHERE Dessert > 0.5 AND Calories < 350")
	if err != nil {
		t.Fatal(err)
	}
	rendered := st.String()
	st2, err := Parse(rendered)
	if err != nil {
		t.Fatalf("re-parse of %q: %v", rendered, err)
	}
	if st2.String() != rendered {
		t.Fatalf("not canonical: %q vs %q", st2.String(), rendered)
	}
}

func TestAttributesDeduplicated(t *testing.T) {
	st, _ := Parse("SELECT Calories, Protein WHERE Calories < 300")
	attrs := st.Attributes()
	if len(attrs) != 2 {
		t.Fatalf("Attributes = %v", attrs)
	}
	q := st.Query()
	if len(q.Targets) != 2 {
		t.Fatalf("Query targets = %v", q.Targets)
	}
}

func TestConditionHolds(t *testing.T) {
	cases := []struct {
		c    Condition
		v    float64
		want bool
	}{
		{Condition{Op: Lt, Value: 5}, 4, true},
		{Condition{Op: Lt, Value: 5}, 5, false},
		{Condition{Op: Le, Value: 5}, 5, true},
		{Condition{Op: Gt, Value: 5}, 6, true},
		{Condition{Op: Ge, Value: 5}, 5, true},
		{Condition{Op: Eq, Value: 100}, 103, true}, // 5% tolerance
		{Condition{Op: Eq, Value: 100}, 110, false},
		{Condition{Op: Ne, Value: 100}, 110, true},
		{Condition{Op: Eq, Value: 0}, 0.01, true}, // small-scale tolerance
		{Condition{Op: Op(99)}, 1, false},
	}
	for i, tc := range cases {
		if got := tc.c.Holds(tc.v); got != tc.want {
			t.Errorf("case %d: Holds(%v) = %v, want %v", i, tc.v, got, tc.want)
		}
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{Lt: "<", Le: "<=", Gt: ">", Ge: ">=", Eq: "=", Ne: "!="} {
		if op.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(op), op.String(), want)
		}
	}
	if Op(42).String() == "" {
		t.Error("unknown op should render")
	}
}

// Property: tokenizer output re-joins to the input's token content (no
// characters lost) for operator-rich strings.
func TestTokenizeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		words := []string{"a", "bc", "<", ">=", ",", "!=", "1.5", "and"}
		var parts []string
		for i := 0; i < 1+r.Intn(10); i++ {
			parts = append(parts, words[r.Intn(len(words))])
		}
		joined := strings.Join(parts, " ")
		toks := tokenize(joined)
		return strings.Join(toks, "") == strings.ReplaceAll(joined, " ", "")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineEndToEnd(t *testing.T) {
	p, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Parse("SELECT Calories, Protein WHERE Protein > 15")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Preprocess(p, st.Query(), crowd.Cents(4), crowd.Dollars(30), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(p, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	objs := p.Universe().NewObjects(rand.New(rand.NewSource(2)), 50)
	rows, err := eng.Execute(st, objs)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || len(rows) == len(objs) {
		t.Fatalf("filter returned %d of %d rows — expected a strict subset", len(rows), len(objs))
	}
	for _, r := range rows {
		if r.Values["Protein"] <= 15 {
			t.Fatalf("row violates WHERE: %v", r.Values)
		}
		if _, ok := r.Values["Calories"]; !ok {
			t.Fatal("selected value missing")
		}
	}
}

func TestEngineValidation(t *testing.T) {
	p, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 56})
	if err != nil {
		t.Fatal(err)
	}
	st, _ := Parse("SELECT Calories")
	if _, err := NewEngine(nil, nil, st); err == nil {
		t.Fatal("nil args should error")
	}
	// Plan that does not cover the statement.
	plan, err := core.Preprocess(p, core.Query{Targets: []string{"Protein"}},
		crowd.Cents(4), crowd.Dollars(15), core.Options{DisableDismantling: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewEngine(p, plan, st); err == nil {
		t.Fatal("uncovered attribute should error")
	}
	// Empty select.
	if _, err := NewEngine(p, plan, &Statement{}); err == nil {
		t.Fatal("empty select should error")
	}
	// Synonyms are resolved through the platform.
	st2, _ := Parse("SELECT Protein Amount")
	if _, err := NewEngine(p, plan, st2); err != nil {
		t.Fatalf("synonym should be covered: %v", err)
	}
}

// TestEngineExecuteOverFaultyPlatform drives the online phase through
// seeded transient faults: with a retry layer the rows are bit-equal to
// the fault-free run (pre-execution injection + memoized answers make
// faults invisible once recovered); without one, the transient error
// surfaces out of Execute.
func TestEngineExecuteOverFaultyPlatform(t *testing.T) {
	p, err := crowd.NewSim(domain.Recipes(), crowd.SimOptions{Seed: 57})
	if err != nil {
		t.Fatal(err)
	}
	st, err := Parse("SELECT Calories, Protein WHERE Protein > 15")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := core.Preprocess(p, st.Query(), crowd.Cents(4), crowd.Dollars(30), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	objs := p.Universe().NewObjects(rand.New(rand.NewSource(9)), 30)

	// Fault-free baseline.
	eng, err := NewEngine(p, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Execute(st, objs)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline returned no rows")
	}

	// Faulty + retry: same rows, and faults really were injected.
	faulty := crowd.NewFaulty(p, crowd.FaultyOptions{Seed: 91, FailRate: 0.3, ShortRate: 0.2})
	retry := crowd.NewRetry(faulty, crowd.RetryOptions{MaxRetries: 20, Backoff: time.Microsecond})
	engRetry, err := NewEngine(retry, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := engRetry.Execute(st, objs)
	if err != nil {
		t.Fatalf("retried execution failed: %v", err)
	}
	if len(got) != len(want) {
		t.Fatalf("rows = %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Object.ID != want[i].Object.ID {
			t.Fatalf("row %d: object %d vs %d", i, got[i].Object.ID, want[i].Object.ID)
		}
		for a, v := range want[i].Values {
			if got[i].Values[a] != v {
				t.Fatalf("row %d attr %q: %v vs %v", i, a, got[i].Values[a], v)
			}
		}
	}
	if s := retry.Stats(); s.InjectedErrors == 0 || s.Retries == 0 {
		t.Fatalf("fault schedule never fired: %+v", s)
	}

	// Faulty without retry: the transient error reaches the caller.
	dead := crowd.NewFaulty(p, crowd.FaultyOptions{Seed: 92, FailAfter: 1})
	engDead, err := NewEngine(dead, plan, st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := engDead.Execute(st, objs); !errors.Is(err, crowd.ErrTransient) {
		t.Fatalf("err = %v, want crowd.ErrTransient to surface", err)
	}
}

// FuzzParse ensures the parser never panics and that anything it accepts
// re-parses to the same canonical form.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT a",
		"SELECT a, b WHERE c > 1",
		"select Number Of Eggs where Has Meat >= 0.5 and x != false",
		"SELECT , WHERE",
		"<>= != , AND",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, input string) {
		st, err := Parse(input)
		if err != nil {
			return
		}
		rendered := st.String()
		st2, err := Parse(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rejected its canonical form %q: %v", input, rendered, err)
		}
		if st2.String() != rendered {
			t.Fatalf("canonical form unstable: %q vs %q", st2.String(), rendered)
		}
	})
}
