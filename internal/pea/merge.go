package pea

import (
	"slices"

	"pea/internal/bc"
	"pea/internal/ir"
)

// merge implements the paper's MergeProcessor (§5.3, Figure 6). It merges
// the exit states of b's predecessors into b's entry state:
//
//   - only ids live in every available predecessor survive (Figure 6a);
//   - ids escaped everywhere merge their materialized values, with a phi
//     when they differ (Figure 6b);
//   - mixed virtual/escaped ids are materialized at the virtual
//     predecessors' edges and handled as escaped;
//   - all-virtual ids merge field-wise, creating phis for differing
//     values; phi inputs that are virtual are materialized first;
//   - pre-existing phis at the merge become aliases of an id when all
//     their inputs alias that id (Figure 6c), otherwise aliased inputs
//     are replaced with materialized values.
//
// The process iterates until no additional materializations occur. During
// loop analysis, predecessors whose exit state is not yet known (back
// edges on the first round) are skipped, which makes the first-round entry
// exactly the paper's "speculative state" (§5.4).
//
// In emit mode the same decisions are replayed, and the effects —
// materializations in predecessor blocks, new phis, substituted phi
// inputs — are applied to the graph.
func (a *analyzer) merge(b *ir.Block) peaState {
	// Available predecessors. Edge materializations mutate the working
	// state copies; predecessors of a merge have a single successor
	// (critical edges are split), so the mutation scope is exactly the
	// edge.
	var preds []pred
	for i, p := range b.Preds {
		if ex := a.exit(p); ex != nil {
			if preds == nil {
				preds = make([]pred, 0, len(b.Preds))
			}
			preds = append(preds, pred{idx: i, blk: p, st: ex.clone()})
		}
	}
	var merged peaState
	if len(preds) == 0 {
		return merged
	}

	alive := make([]int, len(a.objs))
	surviving := make([]bool, len(a.objs))
	scratch := make([]*ir.Node, 2*len(preds)) // two values per predecessor
	var ids []objID
	for iter := 0; ; iter++ {
		merged = peaState{}
		materializedSomething := false

		// Figure 6a: intersection of live ids.
		clear(alive)
		clear(surviving)
		for k := range preds {
			for id, os := range preds[k].st.objs {
				if os != nil {
					alive[id]++
				}
			}
		}
		ids = ids[:0]
		for id, c := range alive {
			if c == len(preds) && a.hasFutureRef(b, objID(id)) {
				ids = append(ids, objID(id))
				surviving[id] = true
			}
		}
		// Survival is closed under field reachability: a virtual object
		// held in a surviving object's field must survive too, even if
		// no direct alias of it is live anymore.
		for w := 0; w < len(ids); w++ {
			id := ids[w]
			for k := range preds {
				st := &preds[k].st
				os := st.objs[id]
				if !os.virtual {
					continue
				}
				for _, f := range os.fields {
					fid, ok := a.aliasIn(st, a.resolveScalar(f))
					if ok && alive[fid] == len(preds) && !surviving[fid] {
						surviving[fid] = true
						ids = append(ids, fid)
					}
				}
			}
		}
		slices.Sort(ids)

		for _, id := range ids {
			allVirtual, anyVirtual := true, false
			for k := range preds {
				if preds[k].st.objs[id].virtual {
					anyVirtual = true
				} else {
					allVirtual = false
				}
			}
			if allVirtual && a.lockDepthsAgree(preds, id) {
				ns, mat := a.mergeVirtual(b, preds, id, scratch)
				if mat {
					materializedSomething = true
				}
				merged.set(id, ns)
				continue
			}
			if anyVirtual {
				// Mixed (or lock-depth conflict): materialize
				// at the virtual predecessors' edges.
				for k := range preds {
					if p := &preds[k]; p.st.objs[id].virtual {
						a.materializeAt(&p.st, id, p.blk, nil, reasonMergeMixed)
						materializedSomething = true
					}
				}
			}
			// All escaped now: merge materialized values
			// (Figure 6b).
			vals := scratch[:len(preds)]
			same := true
			for k := range preds {
				vals[k] = preds[k].st.objs[id].materialized
				if vals[k] != vals[0] {
					same = false
				}
			}
			if same {
				merged.set(id, &objState{materialized: vals[0]})
			} else {
				phi := a.mergePhi(b, id, -1, bc.KindRef)
				a.setPhiInputs(b, phi, preds, vals)
				merged.set(id, &objState{materialized: phi})
			}
		}

		// Figure 6c: pre-existing phis. During loop analysis the back
		// edges may be unavailable (paper §5.4: the first pass runs on
		// the speculative state); aliasing is then decided
		// optimistically from the available inputs — a loop-carried
		// object whose back-edge input is the phi itself resolves
		// through the alias established here in the next round, and a
		// wrong speculation is corrected when the back-edge states
		// arrive.
		for _, phi := range b.Phis {
			if phi.Kind != bc.KindRef || a.ours(phi) {
				continue
			}
			sameID := objID(-1)
			allSame := true
			for k := range preds {
				in := a.resolveScalar(phi.Inputs[preds[k].idx])
				id, ok := a.aliasIn(&preds[k].st, in)
				if !ok {
					allSame = false
					break
				}
				if sameID == -1 {
					sameID = id
				} else if sameID != id {
					allSame = false
					break
				}
			}
			if allSame && sameID >= 0 {
				if ms := merged.get(sameID); ms != nil && ms.virtual {
					a.setAlias(phi, sameID)
					continue
				}
			}
			a.setAlias(phi, noObj)
			for k := range preds {
				p := &preds[k]
				in := a.resolveScalar(phi.Inputs[p.idx])
				if id, ok := a.aliasIn(&p.st, in); ok {
					if p.st.objs[id].virtual {
						a.materializeAt(&p.st, id, p.blk, nil, reasonMergePhi)
						materializedSomething = true
					}
					in = p.st.objs[id].materialized
				}
				if a.emit && in != phi.Inputs[p.idx] {
					phi.Inputs[p.idx] = in
				}
			}
		}

		if !materializedSomething || iter > 2*len(a.objs)+4 {
			break
		}
	}

	if a.emit {
		// Drop phis that became pure aliases of virtual objects:
		// every use has been (or will be) rewritten through the
		// alias, and the phi's own inputs reference deleted
		// allocations.
		for _, phi := range append([]*ir.Node(nil), b.Phis...) {
			if a.ours(phi) {
				continue
			}
			if id, ok := a.aliasOf(phi); ok {
				if ms := merged.get(id); ms != nil && ms.virtual {
					a.g.RemovePhi(phi)
				}
			}
		}
	}
	return merged
}

// pred is one available predecessor of a merge: its index among the
// block's predecessors, the block, and a working copy of its exit state.
type pred struct {
	idx int
	blk *ir.Block
	st  peaState
}

// lockDepthsAgree reports whether the virtual lock depth of id is the same
// in every predecessor state.
func (a *analyzer) lockDepthsAgree(preds []pred, id objID) bool {
	d := -1
	for k := range preds {
		os := preds[k].st.objs[id]
		if !os.virtual {
			continue
		}
		if d == -1 {
			d = os.lockDepth
		} else if d != os.lockDepth {
			return false
		}
	}
	return true
}

// mergeVirtual merges an all-virtual id field-wise. It returns the merged
// state and whether any field-value materialization was requested (which
// forces the caller to re-run the merge). scratch holds two values per
// predecessor.
func (a *analyzer) mergeVirtual(b *ir.Block, preds []pred, id objID, scratch []*ir.Node) (*objState, bool) {
	oi := a.objs[id]
	n := oi.numFields()
	ns := &objState{virtual: true, fields: make([]*ir.Node, n), lockDepth: preds[0].st.objs[id].lockDepth}
	materialized := false
	vals, inputs := scratch[:len(preds)], scratch[len(preds):2*len(preds)]
	for f := 0; f < n; f++ {
		same := true
		for k := range preds {
			vals[k] = a.resolveScalar(preds[k].st.objs[id].fields[f])
			if vals[k] != vals[0] {
				same = false
			}
		}
		if same {
			ns.fields[f] = vals[0]
			continue
		}
		// All values aliasing the same virtual object also merge
		// ("this applies to Ids as well").
		sameID := objID(-1)
		allAlias := true
		for k := range preds {
			st := &preds[k].st
			vid, ok := a.aliasIn(st, vals[k])
			if !ok || !st.objs[vid].virtual {
				allAlias = false
				break
			}
			if sameID == -1 {
				sameID = vid
			} else if sameID != vid {
				allAlias = false
				break
			}
		}
		if allAlias && sameID >= 0 {
			ns.fields[f] = a.objs[sameID].allocSite
			continue
		}
		// Differing values need a phi; virtual inputs must be
		// materialized first (paper §5.3).
		for k := range preds {
			st := &preds[k].st
			v := vals[k]
			if vid, ok := a.aliasIn(st, v); ok {
				if st.objs[vid].virtual {
					a.materializeAt(st, vid, preds[k].blk, nil, reasonMergeField)
					materialized = true
				}
				v = st.objs[vid].materialized
			}
			inputs[k] = v
		}
		phi := a.mergePhi(b, id, f, oi.fieldKind(f))
		a.setPhiInputs(b, phi, preds, inputs)
		ns.fields[f] = phi
	}
	return ns, materialized
}

// mergePhi returns the memoized phi node for (block, id, field).
func (a *analyzer) mergePhi(b *ir.Block, id objID, field int, kind bc.Kind) *ir.Node {
	key := phiKey{block: b, id: id, field: field}
	if phi, ok := a.phiMemo[key]; ok {
		return phi
	}
	phi := a.g.NewNode(ir.OpPhi, kind)
	if a.phiMemo == nil {
		a.phiMemo = make(map[phiKey]*ir.Node)
	}
	a.phiMemo[key] = phi
	return phi
}

// setPhiInputs assigns phi inputs for the available predecessors,
// filling unavailable slots with the first value (they are recomputed once
// the back-edge states arrive), and attaches the phi in emit mode.
func (a *analyzer) setPhiInputs(b *ir.Block, phi *ir.Node, preds []pred, vals []*ir.Node) {
	if len(phi.Inputs) != len(b.Preds) {
		phi.Inputs = make([]*ir.Node, len(b.Preds))
	}
	for i := range phi.Inputs {
		phi.Inputs[i] = vals[0]
	}
	for k, p := range preds {
		phi.Inputs[p.idx] = vals[k]
	}
	a.attachPhi(b, phi)
}

func (a *analyzer) attachPhi(b *ir.Block, phi *ir.Node) {
	if !a.emit || phi.Block != nil {
		return
	}
	phi.Block = b
	b.Phis = append(b.Phis, phi)
}
