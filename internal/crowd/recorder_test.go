package crowd

import (
	"bytes"
	"testing"

	"repro/internal/domain"
)

func TestRecorderCapturesValuesAndExamples(t *testing.T) {
	sim, err := NewSim(domain.Recipes(), SimOptions{Seed: 91})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(sim)

	// Examples record true values.
	ex, err := rec.Examples([]string{"Protein"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	v, ok := rec.Table().True(ex[0].Object.ID, "Protein")
	if !ok || v != ex[0].Values["Protein"] {
		t.Fatalf("true value not recorded: %v %v", v, ok)
	}

	// Value answers recorded under the canonical name.
	ans, err := Value(rec, ex[0].Object, "Is Dessert", 3)
	if err != nil {
		t.Fatal(err)
	}
	got := rec.Table().Answers(ex[0].Object.ID, "Dessert")
	if len(got) != 3 || got[0] != ans[0] {
		t.Fatalf("answers not recorded: %v", got)
	}
	// Re-asking more replaces with the fuller multiset.
	if _, err := Value(rec, ex[0].Object, "Dessert", 5); err != nil {
		t.Fatal(err)
	}
	if len(rec.Table().Answers(ex[0].Object.ID, "Dessert")) != 5 {
		t.Fatal("extended answers not recorded")
	}

	// The table exports as CSV.
	var buf bytes.Buffer
	if err := rec.Table().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("empty CSV export")
	}
}

func TestRecorderDelegation(t *testing.T) {
	sim, err := NewSim(domain.Recipes(), SimOptions{Seed: 92})
	if err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(sim)
	if rec.Canonical("Is Dessert") != "Dessert" {
		t.Fatal("Canonical not delegated")
	}
	if rec.Sigma("Calories") != sim.Sigma("Calories") {
		t.Fatal("Sigma not delegated")
	}
	if !rec.IsBinary("Dessert") {
		t.Fatal("IsBinary not delegated")
	}
	if rec.Pricing() != sim.Pricing() {
		t.Fatal("Pricing not delegated")
	}
	if _, err := rec.Dismantle("Protein"); err != nil {
		t.Fatal(err)
	}
	if _, err := rec.Verify("Has Meat", "Protein"); err != nil {
		t.Fatal(err)
	}
	// Ledger swap passes through to the inner platform.
	l := NewLedger(Cents(10))
	rec.SetLedger(l)
	if rec.Ledger() != l || sim.Ledger() != l {
		t.Fatal("SetLedger not delegated")
	}
	// Errors propagate without recording.
	if _, err := Value(rec, nil, "Calories", 1); err == nil {
		t.Fatal("expected error")
	}
}
