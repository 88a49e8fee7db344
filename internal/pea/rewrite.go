package pea

import "pea/internal/ir"

// rewriteState virtualizes a frame state against the current allocation
// state (paper §5.5, Figure 8): scalar-replaced values are substituted;
// references to virtual objects are replaced with OpVirtualObject nodes and
// a VirtualObjectState describing the current field values (and elided
// lock depth) is attached, transitively for virtual objects reachable from
// other virtual objects' fields; references to escaped objects are
// replaced with their materialized values.
func (a *analyzer) rewriteState(fs *ir.FrameState, st *peaState) *ir.FrameState {
	c := fs.Copy()
	var needed []bool // by object id, allocated on the first virtual slot

	resolveSlot := func(v *ir.Node) *ir.Node {
		if v == nil {
			return nil
		}
		r := a.resolveScalar(v)
		if id, ok := a.aliasIn(st, r); ok {
			if st.objs[id].virtual {
				if needed == nil {
					needed = make([]bool, len(a.objs))
				}
				a.markNeeded(st, id, needed)
				return a.virtualNode(id)
			}
			return st.objs[id].materialized
		}
		return r
	}

	for s := c; s != nil; s = s.Outer {
		for i, v := range s.Locals {
			s.Locals[i] = resolveSlot(v)
		}
		for i, v := range s.Stack {
			s.Stack[i] = resolveSlot(v)
		}
	}

	// Attach descriptors for every (transitively) referenced virtual
	// object to the innermost frame, in id order for determinism.
	for id, need := range needed {
		if !need {
			continue
		}
		os := st.objs[id]
		vo := &ir.VirtualObjectState{Object: a.virtualNode(objID(id)), LockDepth: os.lockDepth}
		for _, f := range os.fields {
			r := a.resolveScalar(f)
			if fid, ok := a.aliasIn(st, r); ok {
				if st.objs[fid].virtual {
					r = a.virtualNode(fid)
				} else {
					r = st.objs[fid].materialized
				}
			}
			vo.Values = append(vo.Values, r)
		}
		c.VirtualObjects = append(c.VirtualObjects, vo)
	}
	return c
}

// markNeeded adds id and every virtual object reachable from its fields.
func (a *analyzer) markNeeded(st *peaState, id objID, needed []bool) {
	if needed[id] {
		return
	}
	needed[id] = true
	for _, f := range st.objs[id].fields {
		r := a.resolveScalar(f)
		if fid, ok := a.aliasIn(st, r); ok && st.objs[fid].virtual {
			a.markNeeded(st, fid, needed)
		}
	}
}
