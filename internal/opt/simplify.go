package opt

import (
	"pea/internal/ir"
)

// SimplifyCFG folds branches on constant conditions, removes unreachable
// blocks, and merges straight-line block chains. It keeps phi inputs
// aligned with predecessor lists throughout.
type SimplifyCFG struct{}

// Name implements Phase.
func (SimplifyCFG) Name() string { return "simplify-cfg" }

// Run implements Phase.
func (SimplifyCFG) Run(g *ir.Graph) (bool, error) {
	changed := false
	for {
		c := foldConstantIfs(g)
		c = g.RemoveDeadBlocks() || c
		c = mergeBlocks(g) || c
		changed = changed || c
		if !c {
			return changed, nil
		}
	}
}

// foldConstantIfs rewrites If nodes with constant conditions into Gotos.
func foldConstantIfs(g *ir.Graph) bool {
	changed := false
	for _, b := range g.Blocks {
		t := b.Term
		if t == nil || t.Op != ir.OpIf || !t.Inputs[0].IsConst() {
			continue
		}
		takenIdx := 1 // false successor
		if t.Inputs[0].AuxInt != 0 {
			takenIdx = 0
		}
		taken := b.Succs[takenIdx]
		dead := b.Succs[1-takenIdx]
		// Remove the dead edge: find which pred slot of `dead`
		// corresponds to this edge. A block can appear several times
		// in preds (If with both arms equal); edges correspond
		// one-to-one, so removing any one matching slot is correct.
		removePredEdge(dead, b)
		gt := g.NewNode(ir.OpGoto, t.Kind)
		gt.BCI = t.BCI
		gt.FrameState = t.FrameState
		gt.Block = b
		b.Term = gt
		b.Succs = []*ir.Block{taken}
		changed = true
	}
	return changed
}

// removePredEdge removes one pred slot of blk matching pred, dropping the
// corresponding phi inputs.
func removePredEdge(blk *ir.Block, pred *ir.Block) {
	for i, p := range blk.Preds {
		if p == pred {
			blk.Preds = append(blk.Preds[:i], blk.Preds[i+1:]...)
			for _, phi := range blk.Phis {
				phi.Inputs = append(phi.Inputs[:i], phi.Inputs[i+1:]...)
			}
			return
		}
	}
}

// mergeBlocks merges b -> s when b ends in a Goto and s has exactly one
// predecessor edge.
func mergeBlocks(g *ir.Graph) bool {
	changed := false
	var sub ir.Substitution // phis of merged blocks, replaced once at the end
	for _, b := range g.Blocks {
		for {
			if b.Term == nil || b.Term.Op != ir.OpGoto {
				break
			}
			s := b.Succs[0]
			if s == b || len(s.Preds) != 1 {
				break
			}
			// Single-pred phis are trivial: replace with their input.
			for _, phi := range s.Phis {
				if v := phi.Inputs[0]; v != phi {
					sub.Add(g, phi, v)
				}
			}
			s.Phis = nil
			for _, n := range s.Nodes {
				n.Block = b
				b.Nodes = append(b.Nodes, n)
			}
			s.Term.Block = b
			b.Term = s.Term
			b.Succs = s.Succs
			for _, ss := range s.Succs {
				for i, p := range ss.Preds {
					if p == s {
						ss.Preds[i] = b
					}
				}
			}
			// Unlink s.
			s.Preds = nil
			s.Succs = nil
			s.Nodes = nil
			s.Term = nil
			removeBlock(g, s)
			changed = true
		}
	}
	if sub != nil {
		g.Substitute(sub)
	}
	return changed
}

func removeBlock(g *ir.Graph, blk *ir.Block) {
	for i, b := range g.Blocks {
		if b == blk {
			g.Blocks = append(g.Blocks[:i], g.Blocks[i+1:]...)
			return
		}
	}
}
