package opt

import (
	"pea/internal/bc"
	"pea/internal/interp"
	"pea/internal/ir"
)

// BranchPruner speculatively replaces never-taken branch targets with
// deoptimization points, as aggressive dynamic compilers do ("assumptions
// such as ... some branches never being taken", paper §2). This is what
// makes Partial Escape Analysis compose with speculation: an object whose
// only escape sits in a pruned branch becomes fully virtual, and if the
// assumption ever fails, the deoptimization runtime rebuilds it from the
// VirtualObjectState in the Deopt node's FrameState (§5.5).
type BranchPruner struct {
	// Profile provides branch execution counts from interpreted runs.
	Profile *interp.Profile
	// MinTotal is the minimum number of observed executions before a
	// branch may be pruned (default 50).
	MinTotal int64
}

// Name implements Phase.
func (*BranchPruner) Name() string { return "prune" }

func (p *BranchPruner) minTotal() int64 {
	if p.MinTotal > 0 {
		return p.MinTotal
	}
	return 50
}

// Run implements Phase.
func (p *BranchPruner) Run(g *ir.Graph) (bool, error) {
	if p.Profile == nil {
		return false, nil
	}
	changed := false
	for _, b := range append([]*ir.Block(nil), g.Blocks...) {
		t := b.Term
		if t == nil || t.Op != ir.OpIf || t.FrameState == nil {
			continue
		}
		// The profile site is the branch bytecode in the innermost
		// (possibly inlined) method.
		m, pc := t.FrameState.Method, t.FrameState.BCI
		if pc != t.BCI {
			continue
		}
		notTaken, taken := p.Profile.BranchCounts(m, pc)
		total := notTaken + taken
		if total < p.minTotal() {
			continue
		}
		// IR true-successor corresponds to the bytecode branch being
		// taken.
		var deadIdx int
		switch {
		case taken == 0:
			deadIdx = 0
		case notTaken == 0:
			deadIdx = 1
		default:
			continue
		}
		dead := b.Succs[deadIdx]
		removePredEdge(dead, b)
		db := g.NewBlock()
		d := g.NewNode(ir.OpDeopt, bc.KindVoid)
		d.FrameState = t.FrameState
		d.BCI = t.BCI
		d.DeoptReason = "untaken branch at " + m.QualifiedName()
		d.Action = ir.DeoptActionInvalidateSpeculation
		d.Block = db
		db.Term = d
		db.Preds = []*ir.Block{b}
		b.Succs[deadIdx] = db
		changed = true
	}
	if changed {
		g.RemoveDeadBlocks()
	}
	return changed, nil
}
