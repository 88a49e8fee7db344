package ir

import (
	"strings"
	"testing"

	"pea/internal/bc"
)

// diamondGraph builds:
//
//	entry -> b1, b2; b1 -> join; b2 -> join; join -> return
func diamondGraph(t *testing.T) (g *Graph, entry, b1, b2, join *Block) {
	t.Helper()
	_, m, _ := tinyMethod(t)
	g = NewGraph(m)
	entry = g.Entry()
	p := g.NewNode(OpParam, bc.KindInt)
	g.Append(entry, p)
	b1 = g.NewBlock()
	b2 = g.NewBlock()
	join = g.NewBlock()
	g.SetTerm(entry, g.NewNode(OpIf, bc.KindVoid, p), b1, b2)
	c1 := g.ConstInt(b1, 1)
	c2 := g.ConstInt(b2, 2)
	g.SetTerm(b1, g.NewNode(OpGoto, bc.KindVoid), join)
	g.SetTerm(b2, g.NewNode(OpGoto, bc.KindVoid), join)
	phi := g.AddPhi(join, bc.KindInt, c1, c2)
	g.SetTerm(join, g.NewNode(OpReturn, bc.KindVoid, phi))
	return g, entry, b1, b2, join
}

func TestDomTreeDiamond(t *testing.T) {
	g, entry, b1, b2, join := diamondGraph(t)
	d := NewDomTree(g)
	if len(d.RPO) != 4 || d.RPO[0] != entry {
		t.Fatalf("RPO = %v", d.RPO)
	}
	if d.IDom(entry) != nil {
		t.Fatalf("entry idom = %v", d.IDom(entry))
	}
	for _, b := range []*Block{b1, b2, join} {
		if d.IDom(b) != entry {
			t.Fatalf("idom(%s) = %v, want entry", b, d.IDom(b))
		}
	}
	if !d.Dominates(entry, join) || !d.Dominates(join, join) {
		t.Fatal("entry and join must dominate join")
	}
	if d.Dominates(b1, join) || d.Dominates(b2, join) || d.Dominates(b1, b2) {
		t.Fatal("branch arms must not dominate the merge or each other")
	}
}

func TestDomTreeLoop(t *testing.T) {
	// entry -> header; header -> body, exit; body -> header (back edge).
	_, m, _ := tinyMethod(t)
	g := NewGraph(m)
	entry := g.Entry()
	p := g.NewNode(OpParam, bc.KindInt)
	g.Append(entry, p)
	header := g.NewBlock()
	body := g.NewBlock()
	exit := g.NewBlock()
	g.SetTerm(entry, g.NewNode(OpGoto, bc.KindVoid), header)
	g.SetTerm(header, g.NewNode(OpIf, bc.KindVoid, p), body, exit)
	g.SetTerm(body, g.NewNode(OpGoto, bc.KindVoid), header)
	g.SetTerm(exit, g.NewNode(OpReturn, bc.KindVoid, p))
	d := NewDomTree(g)
	if d.IDom(header) != entry || d.IDom(body) != header || d.IDom(exit) != header {
		t.Fatalf("idoms: header=%v body=%v exit=%v",
			d.IDom(header), d.IDom(body), d.IDom(exit))
	}
	if !d.Dominates(header, body) || d.Dominates(body, exit) {
		t.Fatal("loop dominance wrong")
	}
}

func TestDomTreeUnreachableBlock(t *testing.T) {
	g, _, _, _, _ := diamondGraph(t)
	dead := g.NewBlock()
	g.SetTerm(dead, g.NewNode(OpReturn, bc.KindVoid, g.ConstInt(dead, 0)))
	d := NewDomTree(g)
	if d.Reachable(dead) {
		t.Fatal("dead block reported reachable")
	}
	if d.Dominates(g.Entry(), dead) {
		t.Fatal("nothing dominates an unreachable block")
	}
	if len(d.RPO) != 4 {
		t.Fatalf("RPO includes unreachable block: %v", d.RPO)
	}
	if d.Dominates(dead, dead) || d.Dominates(dead, g.Entry()) || d.IDom(dead) != nil || d.Index(dead) != -1 {
		t.Fatal("an unreachable block has no place in the tree")
	}
	for i, b := range d.RPO {
		if d.Index(b) != i {
			t.Fatalf("Index(%s) = %d, want %d", b, d.Index(b), i)
		}
	}
}

func TestDomTreesBuiltCounter(t *testing.T) {
	g, _, _, _, _ := diamondGraph(t)
	before := DomTreesBuilt()
	NewDomTree(g)
	if got := DomTreesBuilt(); got != before+1 {
		t.Fatalf("counter %d -> %d, want +1", before, got)
	}
}

// TestVerifyRejectsUnreachableBlock pins the reachability gap fix: a block
// left in g.Blocks but cut off from the entry must be a Verify error (it
// used to pass silently).
func TestVerifyRejectsUnreachableBlock(t *testing.T) {
	g, _, _, _, _ := diamondGraph(t)
	dead := g.NewBlock()
	g.SetTerm(dead, g.NewNode(OpReturn, bc.KindVoid, g.ConstInt(dead, 0)))
	err := Verify(g)
	if err == nil || !strings.Contains(err.Error(), "unreachable from entry") {
		t.Fatalf("got %v, want unreachable-block error", err)
	}
}

// TestVerifyRejectsMissingReachableBlock pins the other direction: a block
// reachable through successor edges but missing from g.Blocks is an error.
func TestVerifyRejectsMissingReachableBlock(t *testing.T) {
	g, _, _, b2, _ := diamondGraph(t)
	for i, b := range g.Blocks {
		if b == b2 {
			g.Blocks = append(g.Blocks[:i], g.Blocks[i+1:]...)
			break
		}
	}
	err := Verify(g)
	if err == nil || !strings.Contains(err.Error(), "missing from g.Blocks") {
		t.Fatalf("got %v, want missing-block error", err)
	}
}
