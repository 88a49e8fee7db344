package pea

import (
	"fmt"

	"pea/internal/bc"
	"pea/internal/ir"
)

// This file connects the analysis to the observability layer. All PEA
// decisions — virtualizations, materializations with their cause and
// position, merge materializations, lock elisions, fixpoint rounds,
// bailouts — are emitted as typed obs events; the sink's ring keeps the
// materializations and summary-kept arguments.
//
// Decision events (virtualize/materialize/lock_elide) are emitted only
// during the emit phase, exactly once per transformation, so that the
// obs metrics counters always equal the Result counters. Fixpoint progress
// events (rounds, state changes, convergence) are emitted during analysis.

// Materialization reason strings carried in obs events.
const (
	// reasonMergeMixed: the object is virtual on some predecessors of a
	// merge and escaped on others (Figure 6b).
	reasonMergeMixed = "merge-mixed"
	// reasonMergePhi: a pre-existing reference phi merges aliases of
	// different objects, so the virtual inputs must exist (Figure 6c).
	reasonMergePhi = "merge-phi"
	// reasonMergeField: field values of an all-virtual object differ
	// between predecessors and the phi's virtual inputs must exist
	// (paper §5.3).
	reasonMergeField = "merge-field-phi"
	// reasonStoreCycle: the store would create a cycle among virtual
	// objects, which a Materialize node cannot express (Figure 5).
	reasonStoreCycle = "store-cycle"
	// reasonNonConstIndex: an array access with a non-constant index
	// forces the array to exist.
	reasonNonConstIndex = "non-const-index"
)

// site returns id's allocation site: the method whose bytecode contains
// the allocation (which survives inlining — the builder tags
// OpNew/OpNewArray with their defining method; nil when untagged, meaning
// the analyzed method) and its bytecode index (-1 without an allocation
// node).
func (a *analyzer) site(id objID) (*bc.Method, int) {
	if n := a.objs[id].allocSite; n != nil {
		return n.Method, n.BCI
	}
	return nil, -1
}

// eventVirtualize emits the scalar-replacement decision for one allocation
// (emit phase only; called exactly when Result.VirtualizedAllocs counts it).
func (a *analyzer) eventVirtualize(id objID, nodeID int) {
	if !a.sink.Traces() {
		return
	}
	site, bci := a.site(id)
	a.sink.Virtualize(a.g.Method, int(id), a.allocDesc(id), nodeID, site, bci)
}

// eventMaterialize records a materialization with reason and position
// (emit phase only; called exactly when Result.MaterializeSites counts it).
// beforeID < 0 marks an edge materialization at the end of b, which is
// always merge-induced and reported as merge_materialize. The sink's ring
// keeps it whether or not the sink traces.
func (a *analyzer) eventMaterialize(id objID, b *ir.Block, beforeID int, reason string) {
	site, bci := a.site(id)
	a.sink.Materialize(a.g.Method, int(id), site, bci, beforeID, b.ID, reason)
}

// eventSummaryKept records one call argument kept virtual under a callee
// summary (emit phase only; called exactly when Result.SummaryKeptVirtual
// counts it). The sink's ring keeps it whether or not the sink traces.
func (a *analyzer) eventSummaryKept(id objID, call *ir.Node, b *ir.Block) {
	if a.sink == nil {
		return
	}
	callee := ""
	if call.Method != nil {
		callee = call.Method.QualifiedName()
	}
	site, bci := a.site(id)
	a.sink.SummaryKeptVirtual(a.g.Method, int(id), site, bci, call.ID, b.ID, callee)
}

// eventLockElide emits one elided monitor operation (emit phase only).
func (a *analyzer) eventLockElide(id objID, nodeID int, op string) {
	site, bci := a.site(id)
	a.sink.LockElide(a.g.Method, int(id), nodeID, op, site, bci)
}

// allocDesc names the allocated type: class name, or "kind[len]" for arrays.
func (a *analyzer) allocDesc(id objID) string {
	oi := a.objs[id]
	if oi.class != nil {
		return oi.class.Name
	}
	return fmt.Sprintf("%s[%d]", oi.elemKind, oi.length)
}
