// Package sched computes control-flow analyses over an IR graph: reverse
// postorder, dominator tree (ir.DomTree) and the natural loop forest.
// Graal's Partial Escape Analysis runs over exactly this structure ("the
// analysis relies on the scheduler to order the nodes", paper §7): blocks
// are visited in reverse postorder, merges are processed when all forward
// predecessors are done, and loops are iterated over their back edges.
package sched

import (
	"fmt"

	"pea/internal/ir"
)

// CFG bundles the analyses for one graph.
type CFG struct {
	// DomTree provides G, RPO, Index, IDom and Dominates.
	*ir.DomTree
	// Loops lists all natural loops, outermost first.
	Loops []*Loop
	// LoopOf maps a block to its innermost containing loop (nil if
	// none).
	LoopOf map[*ir.Block]*Loop
}

// Loop is one natural loop.
type Loop struct {
	Header *ir.Block
	// Blocks contains all blocks of the loop, including the header.
	Blocks map[*ir.Block]bool
	// BackEdges lists the in-loop predecessors of the header.
	BackEdges []*ir.Block
	// Exits lists blocks outside the loop that have a predecessor
	// inside it.
	Exits []*ir.Block
	// Parent is the innermost enclosing loop, or nil.
	Parent *Loop
	// Depth is 1 for outermost loops.
	Depth int
}

// Compute runs all analyses. The graph must have no unreachable blocks
// (call g.RemoveDeadBlocks first if in doubt).
func Compute(g *ir.Graph) (*CFG, error) {
	dom := ir.NewDomTree(g)
	if len(dom.RPO) != len(g.Blocks) {
		return nil, fmt.Errorf("sched: %d of %d blocks unreachable",
			len(g.Blocks)-len(dom.RPO), len(g.Blocks))
	}
	c := &CFG{DomTree: dom}
	if err := c.computeLoops(); err != nil {
		return nil, err
	}
	return c, nil
}

// computeLoops finds back edges (u -> h with h dominating u), builds
// natural loops, merges loops sharing a header, and nests them.
func (c *CFG) computeLoops() error {
	byHeader := make(map[*ir.Block]*Loop)
	for _, u := range c.RPO {
		for _, h := range u.Succs {
			if !c.Dominates(h, u) {
				continue
			}
			// u -> h is a back edge.
			l := byHeader[h]
			if l == nil {
				l = &Loop{Header: h, Blocks: map[*ir.Block]bool{h: true}}
				byHeader[h] = l
			}
			l.BackEdges = append(l.BackEdges, u)
			// Natural loop body: walk predecessors from u until h.
			work := []*ir.Block{u}
			for len(work) > 0 {
				b := work[len(work)-1]
				work = work[:len(work)-1]
				if l.Blocks[b] {
					continue
				}
				l.Blocks[b] = true
				for _, p := range b.Preds {
					work = append(work, p)
				}
			}
		}
	}
	// Order loops outermost-first by containment (bigger first) and nest.
	for _, b := range c.RPO { // deterministic header order
		if l, ok := byHeader[b]; ok {
			c.Loops = append(c.Loops, l)
		}
	}
	// Nest: parent is the smallest other loop strictly containing the
	// header (and all blocks).
	for _, l := range c.Loops {
		for _, m := range c.Loops {
			if m == l || !m.Blocks[l.Header] {
				continue
			}
			if len(m.Blocks) <= len(l.Blocks) {
				continue
			}
			if l.Parent == nil || len(m.Blocks) < len(l.Parent.Blocks) {
				l.Parent = m
			}
		}
	}
	for _, l := range c.Loops {
		d := 1
		for p := l.Parent; p != nil; p = p.Parent {
			d++
		}
		l.Depth = d
	}
	// Exits.
	for _, l := range c.Loops {
		seen := make(map[*ir.Block]bool)
		for b := range l.Blocks {
			for _, s := range b.Succs {
				if !l.Blocks[s] && !seen[s] {
					seen[s] = true
					l.Exits = append(l.Exits, s)
				}
			}
		}
	}
	// Innermost loop per block.
	c.LoopOf = make(map[*ir.Block]*Loop)
	for _, l := range c.Loops {
		for b := range l.Blocks {
			if cur := c.LoopOf[b]; cur == nil || l.Depth > cur.Depth {
				c.LoopOf[b] = l
			}
		}
	}
	// Sort loops outermost first for deterministic consumers.
	for i := 0; i < len(c.Loops); i++ {
		for j := i + 1; j < len(c.Loops); j++ {
			if c.Loops[j].Depth < c.Loops[i].Depth {
				c.Loops[i], c.Loops[j] = c.Loops[j], c.Loops[i]
			}
		}
	}
	return nil
}

// IsBackEdge reports whether the edge from pred into header is a loop back
// edge.
func (c *CFG) IsBackEdge(pred, header *ir.Block) bool {
	l := c.loopWithHeader(header)
	if l == nil {
		return false
	}
	for _, u := range l.BackEdges {
		if u == pred {
			return true
		}
	}
	return false
}

// loopWithHeader returns the loop headed by h, or nil.
func (c *CFG) loopWithHeader(h *ir.Block) *Loop {
	for _, l := range c.Loops {
		if l.Header == h {
			return l
		}
	}
	return nil
}

// LoopHeader reports whether b is a loop header.
func (c *CFG) LoopHeader(b *ir.Block) bool { return c.loopWithHeader(b) != nil }
