package pea

import (
	"fmt"

	"pea/internal/ir"
	"pea/internal/obs/flight"
)

// This file connects the analysis to the observability layer. All PEA
// decisions — virtualizations, materializations with their cause and
// position, merge materializations, lock elisions, fixpoint rounds,
// bailouts — are emitted as typed obs events.
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

// method returns the analyzed method's qualified name for events. It is
// only called on paths already guarded by a.sink != nil.
func (a *analyzer) methodName() string { return a.method }

// siteOf returns the allocation-site identity of id: the method whose
// bytecode contains the allocation (which survives inlining — the builder
// tags OpNew/OpNewArray with their defining method) at its bytecode index.
// Hand-built graphs without site tags fall back to the analyzed method.
func (a *analyzer) siteOf(id objID) string {
	n := a.objs[id].allocSite
	if n == nil {
		return a.method
	}
	if n.Method != nil {
		return fmt.Sprintf("%s@%d", n.Method.QualifiedName(), n.BCI)
	}
	return fmt.Sprintf("%s@%d", a.method, n.BCI)
}

// flightSite returns the site as flight-recorder scalars: the dense method
// ID (-1 when untagged) and bytecode index of the allocation.
func (a *analyzer) flightSite(id objID) (method, bci int32) {
	method, bci = -1, -1
	if n := a.objs[id].allocSite; n != nil {
		bci = int32(n.BCI)
		if n.Method != nil {
			method = int32(n.Method.ID)
		}
	}
	return method, bci
}

// eventVirtualize emits the scalar-replacement decision for one allocation
// (emit phase only; called exactly when Result.VirtualizedAllocs counts it).
func (a *analyzer) eventVirtualize(id objID, nodeID int) {
	if a.sink == nil {
		return
	}
	a.sink.Virtualize(a.methodName(), fmt.Sprintf("o%d", id),
		a.allocDesc(id), fmt.Sprintf("v%d", nodeID), a.siteOf(id))
}

// eventMaterialize emits a materialization with reason and position (emit
// phase only; called exactly when Result.MaterializeSites counts it).
// before == nil marks an edge materialization at the end of b, which is
// always merge-induced and reported as merge_materialize. The decision is
// also recorded in the always-on flight recorder (independent of the sink).
func (a *analyzer) eventMaterialize(id objID, b fmt.Stringer, beforeID int, reason string) {
	if fl := a.conf.Flight; fl != nil {
		method, bci := a.flightSite(id)
		fl.Record(flight.KindMaterialize, method, bci, int64(id), 0, fl.Reason(reason))
	}
	if a.sink == nil {
		return
	}
	if beforeID >= 0 {
		a.sink.Materialize(a.methodName(), fmt.Sprintf("o%d", id),
			fmt.Sprintf("v%d", beforeID), b.String(), reason, a.siteOf(id))
		return
	}
	a.sink.MergeMaterialize(a.methodName(), fmt.Sprintf("o%d", id), b.String(), reason, a.siteOf(id))
}

// eventSummaryKept emits one call argument kept virtual under a callee
// summary (emit phase only; called exactly when Result.SummaryKeptVirtual
// counts it). Recorded in the flight recorder independently of the sink.
func (a *analyzer) eventSummaryKept(id objID, call *ir.Node, b fmt.Stringer) {
	callee := ""
	if call.Method != nil {
		callee = call.Method.QualifiedName()
	}
	if fl := a.conf.Flight; fl != nil {
		method, bci := a.flightSite(id)
		fl.Record(flight.KindSummaryKept, method, bci, int64(id), 0, fl.Reason(callee))
	}
	if a.sink == nil {
		return
	}
	a.sink.SummaryKeptVirtual(a.methodName(), fmt.Sprintf("o%d", id),
		fmt.Sprintf("v%d", call.ID), b.String(), callee, a.siteOf(id))
}

// eventLockElide emits one elided monitor operation (emit phase only).
func (a *analyzer) eventLockElide(id objID, nodeID int, op string) {
	if a.sink == nil {
		return
	}
	a.sink.LockElide(a.methodName(), fmt.Sprintf("o%d", id),
		fmt.Sprintf("v%d", nodeID), op, a.siteOf(id))
}

// allocDesc names the allocated type: class name, or "kind[len]" for arrays.
func (a *analyzer) allocDesc(id objID) string {
	oi := a.objs[id]
	if oi.class != nil {
		return oi.class.Name
	}
	return fmt.Sprintf("%s[%d]", oi.elemKind, oi.length)
}
