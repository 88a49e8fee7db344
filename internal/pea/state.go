// Package pea implements the paper's contribution: control-flow-sensitive
// Partial Escape Analysis with Scalar Replacement and Lock Elision on the
// SSA IR (Stadler, Würthinger, Mössenböck — CGO 2014).
//
// The analysis walks the control flow in reverse postorder, maintaining for
// every allocation an ObjectState that is either *virtual* — the field
// values and lock depth are compile-time knowledge — or *escaped* — the
// object was materialized and is represented by the node that (re)creates
// it (paper §5.1, Listing 7). Node transfer functions implement Figure 4/5;
// a MergeProcessor implements Figure 6; loops are iterated to a fixpoint as
// in §5.4 (Figure 7); FrameStates are rewritten to reference virtual object
// descriptors as in §5.5 (Figure 8).
package pea

import (
	"fmt"
	"strings"

	"pea/internal/bc"
	"pea/internal/ir"
)

// objID identifies one analyzed allocation (the paper's "Id").
type objID int

// objInfo is the flow-invariant description of an allocation.
type objInfo struct {
	id        objID
	class     *bc.Class // nil for arrays
	elemKind  bc.Kind   // for arrays
	length    int64     // for arrays
	allocSite *ir.Node  // the original OpNew / OpNewArray
	// virtual is the OpVirtualObject node standing for the object in
	// frame states, and lenConst the constant length node of a virtual
	// array; each is created on first use.
	virtual, lenConst *ir.Node
}

func (oi *objInfo) numFields() int {
	if oi.class != nil {
		return oi.class.NumFields()
	}
	return int(oi.length)
}

func (oi *objInfo) fieldKind(i int) bc.Kind {
	if oi.class != nil {
		return oi.class.Fields[i].Kind
	}
	return oi.elemKind
}

// objState is the flow-dependent state of one allocation: the paper's
// VirtualState (fields + lockCount) or EscapedState (materializedValue).
type objState struct {
	virtual bool
	// fields holds the current field (or array element) values while
	// virtual. Entries may be nodes that alias other virtual objects.
	fields []*ir.Node
	// lockDepth is the number of elided monitor acquisitions held.
	lockDepth int
	// materialized is the node producing the object once escaped.
	materialized *ir.Node
}

func (os *objState) clone() *objState {
	c := *os
	c.fields = append([]*ir.Node(nil), os.fields...)
	return &c
}

func (os *objState) equal(o *objState) bool {
	if os.virtual != o.virtual {
		return false
	}
	if os.virtual {
		if os.lockDepth != o.lockDepth || len(os.fields) != len(o.fields) {
			return false
		}
		for i := range os.fields {
			if os.fields[i] != o.fields[i] {
				return false
			}
		}
		return true
	}
	return os.materialized == o.materialized
}

// peaState is the per-program-point table from live object ids to their
// states (the paper's `states` map; the alias map is kept globally on the
// analyzer since SSA values bind to at most one object over their
// lifetime). It is dense: objs is indexed by object id, and a nil entry
// (or an id past its end) is an object that is not live.
//
// States are values with copy-on-write tables: clone is O(1), allocates
// nothing, and shares the table (and the objStates in it) with the
// original, deferring the deep copy until either side mutates. A state is
// copied only through clone, so that both sides know the table is shared.
// The analysis clones at every block entry and merge edge but mutates only
// where objects are allocated, stored to, locked, or materialized, so
// straight-line code through allocation-free blocks pays nothing. All
// mutations must go through set/mutable, which un-share first.
type peaState struct {
	objs []*objState
	// shared marks objs (and every objState in it) as potentially
	// referenced by another peaState; mutating methods copy first.
	shared bool
}

// clone returns a state equivalent to s. Both s and the clone become
// shared; the first mutation on either side copies.
func (s *peaState) clone() peaState {
	s.shared = true
	return peaState{objs: s.objs, shared: true}
}

// get returns id's state, or nil if id is not live in s.
func (s *peaState) get(id objID) *objState {
	if int(id) < len(s.objs) {
		return s.objs[id]
	}
	return nil
}

// own makes s's table private, deep-copying it if it is still shared.
func (s *peaState) own() {
	if !s.shared {
		return
	}
	objs := make([]*objState, len(s.objs))
	for id, os := range s.objs {
		if os != nil {
			objs[id] = os.clone()
		}
	}
	s.objs = objs
	s.shared = false
}

// set binds id to os, un-sharing first.
func (s *peaState) set(id objID, os *objState) {
	s.own()
	for int(id) >= len(s.objs) {
		s.objs = append(s.objs, nil)
	}
	s.objs[id] = os
}

// mutable returns id's state for in-place mutation, un-sharing first. The
// id must be live in s.
func (s *peaState) mutable(id objID) *objState {
	s.own()
	return s.objs[id]
}

func (s *peaState) equal(o *peaState) bool {
	n := max(len(s.objs), len(o.objs))
	for id := objID(0); int(id) < n; id++ {
		a, b := s.get(id), o.get(id)
		if a == b {
			continue
		}
		if a == nil || b == nil || !a.equal(b) {
			return false
		}
	}
	return true
}

// ids returns the live object ids in ascending order.
func (s *peaState) ids() []objID {
	var out []objID
	for id, os := range s.objs {
		if os != nil {
			out = append(out, objID(id))
		}
	}
	return out
}

// String renders the state for debugging.
func (s *peaState) String() string {
	var b strings.Builder
	b.WriteString("{")
	for i, id := range s.ids() {
		if i > 0 {
			b.WriteString(", ")
		}
		os := s.objs[id]
		if os.virtual {
			fmt.Fprintf(&b, "o%d=virt(locks=%d, fields=%s)", id, os.lockDepth, fmtNodes(os.fields))
		} else {
			fmt.Fprintf(&b, "o%d=esc(%s)", id, nodeName(os.materialized))
		}
	}
	b.WriteString("}")
	return b.String()
}

func fmtNodes(ns []*ir.Node) string {
	var b strings.Builder
	b.WriteString("[")
	for i, n := range ns {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(nodeName(n))
	}
	b.WriteString("]")
	return b.String()
}

func nodeName(n *ir.Node) string {
	if n == nil {
		return "_"
	}
	return fmt.Sprintf("v%d", n.ID)
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
