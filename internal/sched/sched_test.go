package sched

import (
	"testing"

	"pea/internal/build"
	"pea/internal/ir"
	"pea/internal/testprog"
)

func graphFor(t *testing.T, name string) (*ir.Graph, *CFG) {
	t.Helper()
	for _, p := range testprog.Corpus() {
		if p.Name == name {
			g, err := build.Build(p.Entry)
			if err != nil {
				t.Fatal(err)
			}
			c, err := Compute(g)
			if err != nil {
				t.Fatal(err)
			}
			return g, c
		}
	}
	t.Fatalf("no corpus program %q", name)
	return nil, nil
}

func TestRPOStartsAtEntryAndCoversAll(t *testing.T) {
	for _, p := range testprog.Corpus() {
		g, err := build.Build(p.Entry)
		if err != nil {
			t.Fatal(err)
		}
		c, err := Compute(g)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		if c.RPO[0] != g.Entry() {
			t.Fatalf("%s: RPO[0] is not entry", p.Name)
		}
		if len(c.RPO) != len(g.Blocks) {
			t.Fatalf("%s: RPO covers %d of %d blocks", p.Name, len(c.RPO), len(g.Blocks))
		}
		// RPO property: every non-back-edge predecessor precedes the block.
		for _, b := range c.RPO {
			for _, pr := range b.Preds {
				if c.IsBackEdge(pr, b) {
					continue
				}
				if c.Index(pr) >= c.Index(b) {
					t.Fatalf("%s: forward pred %s of %s comes later in RPO", p.Name, pr, b)
				}
			}
		}
	}
}

func TestDominatorsBasics(t *testing.T) {
	g, c := graphFor(t, "diamond")
	entry := g.Entry()
	if c.IDom(entry) != nil {
		t.Fatal("entry has an idom")
	}
	for _, b := range c.RPO[1:] {
		if c.IDom(b) == nil {
			t.Fatalf("%s has no idom", b)
		}
		if !c.Dominates(entry, b) {
			t.Fatalf("entry does not dominate %s", b)
		}
		if !c.Dominates(b, b) {
			t.Fatalf("%s does not dominate itself", b)
		}
	}
	// The join block (multi-pred) must be dominated by the branch block,
	// not by either arm.
	for _, b := range c.RPO {
		if len(b.Preds) >= 2 {
			id := c.IDom(b)
			if id == nil || id.Term == nil || id.Term.Op != ir.OpIf {
				t.Fatalf("join %s idom = %v, want the branching block", b, id)
			}
		}
	}
}

func TestLoopDetectionSimple(t *testing.T) {
	_, c := graphFor(t, "loopSum")
	if len(c.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(c.Loops))
	}
	l := c.Loops[0]
	if l.Depth != 1 {
		t.Fatalf("depth = %d", l.Depth)
	}
	if len(l.BackEdges) != 1 {
		t.Fatalf("back edges = %d, want 1", len(l.BackEdges))
	}
	if !c.LoopHeader(l.Header) {
		t.Fatal("header not recognized")
	}
	if len(l.Exits) == 0 {
		t.Fatal("loop has no exits")
	}
	for _, e := range l.Exits {
		if l.Blocks[e] {
			t.Fatalf("exit %s is inside the loop", e)
		}
	}
	// The header must have exactly one non-back-edge pred.
	fwd := 0
	for _, p := range l.Header.Preds {
		if !c.IsBackEdge(p, l.Header) {
			fwd++
		}
	}
	if fwd != 1 {
		t.Fatalf("header has %d forward preds", fwd)
	}
}

func TestLoopNesting(t *testing.T) {
	_, c := graphFor(t, "nestedLoops")
	if len(c.Loops) != 2 {
		t.Fatalf("loops = %d, want 2", len(c.Loops))
	}
	var outer, inner *Loop
	for _, l := range c.Loops {
		switch l.Depth {
		case 1:
			outer = l
		case 2:
			inner = l
		}
	}
	if outer == nil || inner == nil {
		t.Fatalf("depths wrong: %+v", c.Loops)
	}
	if inner.Parent != outer {
		t.Fatal("inner loop not nested in outer")
	}
	if !outer.Blocks[inner.Header] {
		t.Fatal("outer loop does not contain inner header")
	}
	if inner.Depth <= outer.Depth {
		t.Fatal("inner loop depth should exceed outer")
	}
}

func TestLoopTwoBackEdges(t *testing.T) {
	_, c := graphFor(t, "loopTwoBackEdges")
	if len(c.Loops) != 1 {
		t.Fatalf("loops = %d, want 1", len(c.Loops))
	}
	l := c.Loops[0]
	if len(l.BackEdges) != 2 {
		t.Fatalf("back edges = %d, want 2 (paper Figure 7 shape)", len(l.BackEdges))
	}
	for _, u := range l.BackEdges {
		if !c.IsBackEdge(u, l.Header) {
			t.Fatalf("IsBackEdge(%s, %s) = false", u, l.Header)
		}
	}
}

func TestDominanceAntisymmetry(t *testing.T) {
	for _, name := range []string{"diamond", "nestedLoops", "cacheKey", "loopTwoBackEdges"} {
		_, c := graphFor(t, name)
		for _, a := range c.RPO {
			for _, b := range c.RPO {
				if a != b && c.Dominates(a, b) && c.Dominates(b, a) {
					t.Fatalf("%s: %s and %s dominate each other", name, a, b)
				}
			}
		}
	}
}

func TestNoLoopsInStraightLine(t *testing.T) {
	_, c := graphFor(t, "straightLine")
	if len(c.Loops) != 0 {
		t.Fatalf("loops = %d, want 0", len(c.Loops))
	}
}
