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

// backEdges returns the loop back edges of c as source -> header pairs: the
// edges into a block that dominates their source.
func backEdges(c *CFG) [][2]*ir.Block {
	var out [][2]*ir.Block
	for _, u := range c.RPO {
		for _, h := range u.Succs {
			if c.Dominates(h, u) {
				out = append(out, [2]*ir.Block{u, h})
			}
		}
	}
	return out
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
				if c.Dominates(b, pr) {
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

// The loop tests read loops off the dominator tree: a back edge is an edge
// into a block that dominates its source, and that block is a loop header.

func TestLoopDetectionSimple(t *testing.T) {
	_, c := graphFor(t, "loopSum")
	be := backEdges(c)
	if len(be) != 1 {
		t.Fatalf("back edges = %d, want 1", len(be))
	}
	h := be[0][1]
	// The header has exactly one forward pred, which precedes it in RPO,
	// and the back edge's source follows it.
	fwd := 0
	for _, p := range h.Preds {
		if !c.Dominates(h, p) {
			fwd++
			if c.Index(p) >= c.Index(h) {
				t.Fatalf("forward pred %s follows header %s in RPO", p, h)
			}
		}
	}
	if fwd != 1 {
		t.Fatalf("header has %d forward preds", fwd)
	}
	if c.Index(be[0][0]) < c.Index(h) {
		t.Fatalf("back edge source %s precedes header %s in RPO", be[0][0], h)
	}
	// The header branches out of the loop: one of its successors does not
	// dominate the back edge's source.
	exits := 0
	for _, s := range h.Succs {
		if !c.Dominates(s, be[0][0]) {
			exits++
		}
	}
	if exits == 0 {
		t.Fatal("loop has no exits")
	}
}

func TestLoopNesting(t *testing.T) {
	_, c := graphFor(t, "nestedLoops")
	be := backEdges(c)
	if len(be) != 2 || be[0][1] == be[1][1] {
		t.Fatalf("back edges = %v, want two into distinct headers", be)
	}
	outer, inner := be[0][1], be[1][1]
	if c.Index(inner) < c.Index(outer) {
		outer, inner = inner, outer
	}
	// The outer header dominates the inner loop, header and back edge.
	if !c.Dominates(outer, inner) || c.Dominates(inner, outer) {
		t.Fatal("inner loop not nested in outer")
	}
	for _, e := range be {
		if e[1] == inner && !c.Dominates(outer, e[0]) {
			t.Fatal("inner back edge outside the outer loop")
		}
	}
}

func TestLoopTwoBackEdges(t *testing.T) {
	_, c := graphFor(t, "loopTwoBackEdges")
	be := backEdges(c)
	if len(be) != 2 || be[0][1] != be[1][1] {
		t.Fatalf("back edges = %v, want two into one header (paper Figure 7 shape)", be)
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
	if be := backEdges(c); len(be) != 0 {
		t.Fatalf("back edges = %v, want none", be)
	}
}
