// Package sched computes control-flow analyses over an IR graph: reverse
// postorder and the dominator tree (ir.DomTree). Graal's Partial Escape
// Analysis runs over exactly this structure ("the analysis relies on the
// scheduler to order the nodes", paper §7): blocks are visited in reverse
// postorder, and a loop header is a block with a predecessor at or after
// its own position.
package sched

import (
	"fmt"

	"pea/internal/ir"
)

// CFG bundles the analyses for one graph.
type CFG struct {
	// DomTree provides G, RPO, Index, IDom and Dominates.
	*ir.DomTree
}

// Compute runs all analyses. The graph must have no unreachable blocks
// (call g.RemoveDeadBlocks first if in doubt).
func Compute(g *ir.Graph) (*CFG, error) {
	dom := ir.NewDomTree(g)
	if len(dom.RPO) != len(g.Blocks) {
		return nil, fmt.Errorf("sched: %d of %d blocks unreachable",
			len(g.Blocks)-len(dom.RPO), len(g.Blocks))
	}
	return &CFG{DomTree: dom}, nil
}
