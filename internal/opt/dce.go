package opt

import (
	"pea/internal/ir"
)

// DCE removes pure nodes (and phis) with no remaining usages, iterating to
// a fixpoint so chains of dead computations disappear. Non-pure nodes —
// including loads, which can trap on null, and allocations, whose removal
// is escape analysis's job — are never touched.
type DCE struct{}

// Name implements Phase.
func (DCE) Name() string { return "dce" }

// Run implements Phase. Uses are counted once; taking a node out gives up
// its own uses, so a sweep sees what the one before it freed without
// counting again.
func (DCE) Run(g *ir.Graph) (bool, error) {
	uses := g.UseCounts()
	removed := false
	keep := func(n *ir.Node) bool {
		if n.Op == ir.OpPhi {
			// A phi used only by itself is a dead loop phi.
			self := int32(0)
			for _, in := range n.Inputs {
				if in == n {
					self++
				}
			}
			if uses[n.ID] > self {
				return true
			}
		} else if !n.Pure() || uses[n.ID] > 0 {
			return true
		}
		for _, in := range n.Inputs {
			if in != nil {
				uses[in.ID]--
			}
		}
		n.Block = nil
		removed = true
		return false
	}
	changed := false
	for {
		removed = false
		for _, b := range g.Blocks {
			b.Phis = filterNodes(b.Phis, keep)
			b.Nodes = filterNodes(b.Nodes, keep)
		}
		if !removed {
			return changed, nil
		}
		changed = true
	}
}
