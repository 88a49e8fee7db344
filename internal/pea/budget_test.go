package pea

import (
	"errors"
	"testing"

	"pea/internal/bc"
	"pea/internal/budget"
	"pea/internal/build"
	"pea/internal/ir"
	"pea/internal/testprog"
)

// buildGraph builds and pre-optimizes m exactly like compileOne, but
// stops before PEA so budget tests control the PEA entry state.
func buildGraph(t *testing.T, prog *bc.Program, m *bc.Method) *ir.Graph {
	t.Helper()
	g, err := build.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestBudgetBailsBeforeMutation: a budget violation observed at a PEA
// fixpoint boundary unwinds as a bailout with the graph untouched — the
// cooperative cancellation contract the broker's transient-failure path
// depends on.
func TestBudgetBailsBeforeMutation(t *testing.T) {
	p := testprog.Generate(3)
	g := buildGraph(t, p.Prog, p.Entry)
	before := ir.Dump(g)

	res, err := Run(g, Config{Budget: &budget.Budget{MaxNodes: 1}})
	if !budget.IsBudget(err) {
		t.Fatalf("Run error = %v, want a budget error", err)
	}
	var be *budget.Err
	if !errors.As(err, &be) || be.Kind != "nodes" {
		t.Fatalf("structured error = %+v", be)
	}
	if !res.BailedOut {
		t.Fatal("budget overrun must report as a bailout")
	}
	if got := ir.Dump(g); got != before {
		t.Fatalf("budget bailout mutated the graph:\n--- before ---\n%s\n--- after ---\n%s", before, got)
	}
}

// TestNilBudgetRunsToCompletion: the default nil budget leaves PEA
// untouched and reads no clock.
func TestNilBudgetRunsToCompletion(t *testing.T) {
	p := testprog.Generate(3)
	g := buildGraph(t, p.Prog, p.Entry)
	reads := budget.ClockReads()
	res, err := Run(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.BailedOut {
		t.Fatal("unexpected bailout")
	}
	if d := budget.ClockReads() - reads; d != 0 {
		t.Fatalf("nil budget read the clock %d times", d)
	}
}

// TestBudgetErrorNamesTheMethod: an overrun past the entry check names the
// method even when the sink does not trace. A node bound equal to the
// graph's size passes pea-entry and trips at the first fixpoint round,
// once critical-edge splitting has added blocks.
func TestBudgetErrorNamesTheMethod(t *testing.T) {
	p := testprog.Generate(1)
	g := buildGraph(t, p.Prog, p.Entry)
	res, err := Run(g, Config{Budget: &budget.Budget{MaxNodes: g.NumNodes()}})
	var be *budget.Err
	if !errors.As(err, &be) {
		t.Fatalf("Run error = %v, want a budget error", err)
	}
	if be.Phase != "pea-fixpoint" || be.Method != p.Entry.QualifiedName() {
		t.Fatalf("budget error at %q in %q, want pea-fixpoint in %q (%v)",
			be.Phase, be.Method, p.Entry.QualifiedName(), err)
	}
	if !res.BailedOut {
		t.Fatal("budget overrun must report as a bailout")
	}
}
