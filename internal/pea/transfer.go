package pea

import (
	"pea/internal/bc"
	"pea/internal/ir"
)

// transferBlock applies the node transfer functions (paper §5.2, Figures
// 4 and 5) to every node of b, turning st from b's entry state into its
// exit state. In emit mode it additionally performs the rewrites:
// removing virtualized nodes, substituting scalar values, inserting
// materializations, and virtualizing frame states.
func (a *analyzer) transferBlock(b *ir.Block, st *peaState) {
	nodes := b.Nodes
	if a.emit {
		// Emit removes and inserts nodes: walk a copy.
		nodes = append([]*ir.Node(nil), nodes...)
	}
	for _, n := range nodes {
		a.transferNode(b, n, st)
	}
	if t := b.Term; t != nil {
		a.transferNode(b, t, st)
	}
}

// virtualizableAlloc reports whether n is an allocation PEA can virtualize.
func (a *analyzer) virtualizableAlloc(n *ir.Node) bool {
	if a.conf.AllowAlloc != nil && !a.conf.AllowAlloc(n) {
		return false
	}
	// oplint:ignore — only allocation ops can be virtualized; everything
	// else answers false below.
	switch n.Op {
	case ir.OpNew:
		return true
	case ir.OpNewArray:
		if a.conf.DisableArrays {
			return false
		}
		ln := n.Inputs[0]
		return ln.IsConst() && ln.AuxInt >= 0 && ln.AuxInt <= maxVirtualArrayLength
	}
	return false
}

func (a *analyzer) transferNode(b *ir.Block, n *ir.Node, st *peaState) {
	// oplint:ignore — ops without a dedicated transfer rule fall through
	// to defaultTransfer, the conservative escape treatment (§3.2); a new
	// op is safe-by-default rather than silently wrong.
	switch n.Op {
	case ir.OpMaterialize, ir.OpVirtualObject, ir.OpPhi:
		// Nodes introduced by this analysis (or phis, handled at
		// merges) are transparent to the transfer.
		return

	case ir.OpOnException, ir.OpExceptionObject, ir.OpUnwind:
		// OnException's input names the node it guards, not a value use —
		// the default transfer would wrongly materialize the guarded
		// node's object. The exception object and Unwind reference no
		// virtual state either: virtual objects stay virtual across the
		// exceptional edge, which is the whole point — the handler path
		// materializes only what it actually observes escaping.
		return

	case ir.OpNew, ir.OpNewArray:
		if !a.virtualizableAlloc(n) {
			a.defaultTransfer(b, n, st)
			return
		}
		// Figure 4a: a new virtual object with default field values.
		id := a.idForAlloc(n)
		oi := a.objs[id]
		os := &objState{virtual: true, fields: make([]*ir.Node, oi.numFields())}
		for i := range os.fields {
			os.fields[i] = a.defaultValue(oi.fieldKind(i))
		}
		st.set(id, os)
		if a.emit {
			a.eventVirtualize(id, n.ID)
			a.g.RemoveNode(n)
			a.res.VirtualizedAllocs++
		}

	case ir.OpLoadField:
		obj := a.resolveScalar(n.Inputs[0])
		if id, ok := a.aliasIn(st, obj); ok && st.objs[id].virtual {
			// Figure 4b/4f: the load is replaced by the known
			// field value; if that value is itself a virtual
			// object, the load becomes one of its aliases.
			val := st.objs[id].fields[n.Field.Offset]
			a.replace(n, val)
			if vid, vok := a.aliasIn(st, val); vok {
				a.setAlias(n, vid)
			}
			if a.emit {
				a.g.RemoveNode(n)
				a.res.ScalarizedLoads++
			}
			return
		}
		// A previous round may have scalar-replaced this load under a
		// speculation that did not hold; retract the stale verdict.
		a.replace(n, nil)
		a.setAlias(n, noObj)
		a.defaultTransfer(b, n, st)

	case ir.OpStoreField:
		obj := a.resolveScalar(n.Inputs[0])
		if id, ok := a.aliasIn(st, obj); ok && st.objs[id].virtual {
			val := a.resolveScalar(n.Inputs[1])
			if vid, vok := a.aliasIn(st, val); vok && st.objs[vid].virtual && a.reaches(st, vid, id) {
				// Storing val would create a cycle among virtual
				// objects (x.f = x, or mutual references), which
				// a single Materialize node cannot express;
				// materialize the target and fall through to a
				// real store (Figure 5).
				a.materializeAt(st, id, b, n, reasonStoreCycle)
			} else {
				// Figure 4b/4e: remember the store in the state.
				st.mutable(id).fields[n.Field.Offset] = val
				if a.emit {
					a.g.RemoveNode(n)
				}
				return
			}
		}
		a.defaultTransfer(b, n, st)

	case ir.OpLoadIndexed:
		arr := a.resolveScalar(n.Inputs[0])
		idx := a.resolveScalar(n.Inputs[1])
		if id, ok := a.aliasIn(st, arr); ok && st.objs[id].virtual {
			if idx.IsConst() && idx.AuxInt >= 0 && idx.AuxInt < a.objs[id].length {
				val := st.objs[id].fields[idx.AuxInt]
				a.replace(n, val)
				if vid, vok := a.aliasIn(st, val); vok {
					a.setAlias(n, vid)
				}
				if a.emit {
					a.g.RemoveNode(n)
					a.res.ScalarizedLoads++
				}
				return
			}
			// Unknown index: the array must exist.
			a.materializeAt(st, id, b, n, reasonNonConstIndex)
		}
		a.replace(n, nil)
		a.setAlias(n, noObj)
		a.defaultTransfer(b, n, st)

	case ir.OpStoreIndexed:
		arr := a.resolveScalar(n.Inputs[0])
		idx := a.resolveScalar(n.Inputs[1])
		if id, ok := a.aliasIn(st, arr); ok && st.objs[id].virtual {
			if idx.IsConst() && idx.AuxInt >= 0 && idx.AuxInt < a.objs[id].length {
				val := a.resolveScalar(n.Inputs[2])
				if vid, vok := a.aliasIn(st, val); vok && st.objs[vid].virtual && a.reaches(st, vid, id) {
					a.materializeAt(st, id, b, n, reasonStoreCycle)
				} else {
					st.mutable(id).fields[idx.AuxInt] = val
					if a.emit {
						a.g.RemoveNode(n)
					}
					return
				}
			} else {
				a.materializeAt(st, id, b, n, reasonNonConstIndex)
			}
		}
		a.defaultTransfer(b, n, st)

	case ir.OpArrayLength:
		arr := a.resolveScalar(n.Inputs[0])
		if id, ok := a.aliasIn(st, arr); ok && st.objs[id].virtual {
			c := a.arrayLenConst(id)
			a.replace(n, c)
			if a.emit {
				// The length constant is shared by every fold site of
				// this virtual array, which may sit in sibling branches;
				// place it in the entry block so it dominates all of
				// them (placing it at the first fold site would break
				// SSA dominance for later sites).
				if c.Block == nil {
					a.prependEntry(c)
				}
				a.g.RemoveNode(n)
			}
			return
		}
		a.replace(n, nil)
		a.defaultTransfer(b, n, st)

	case ir.OpMonitorEnter:
		obj := a.resolveScalar(n.Inputs[0])
		if id, ok := a.aliasIn(st, obj); ok && st.objs[id].virtual {
			// Figure 4c: lock elision on a virtual object.
			st.mutable(id).lockDepth++
			if a.emit {
				a.eventLockElide(id, n.ID, "monitorenter")
				a.g.RemoveNode(n)
				a.res.ElidedMonitors++
			}
			return
		}
		a.defaultTransfer(b, n, st)

	case ir.OpMonitorExit:
		obj := a.resolveScalar(n.Inputs[0])
		if id, ok := a.aliasIn(st, obj); ok && st.objs[id].virtual && st.objs[id].lockDepth > 0 {
			// Figure 4d.
			st.mutable(id).lockDepth--
			if a.emit {
				a.eventLockElide(id, n.ID, "monitorexit")
				a.g.RemoveNode(n)
				a.res.ElidedMonitors++
			}
			return
		}
		a.defaultTransfer(b, n, st)

	case ir.OpRefEq:
		x := a.resolveScalar(n.Inputs[0])
		y := a.resolveScalar(n.Inputs[1])
		xid, xok := a.aliasIn(st, x)
		yid, yok := a.aliasIn(st, y)
		xvirt := xok && st.objs[xid].virtual
		yvirt := yok && st.objs[yid].virtual
		if xvirt || yvirt {
			// §5.2: always false when exactly one input is
			// virtual; identity of ids decides otherwise.
			eq := xvirt && yvirt && xid == yid
			// Same id is equality; different virtual ids or a
			// virtual vs anything else is inequality.
			val := b2i(eq != (n.Cond == bc.CondNE))
			c := a.constFold(n, val)
			a.replace(n, c)
			if a.emit {
				a.placeFold(b, c, n)
				a.g.RemoveNode(n)
				a.res.FoldedChecks++
			}
			return
		}
		a.replace(n, nil)
		a.defaultTransfer(b, n, st)

	case ir.OpInstanceOf:
		x := a.resolveScalar(n.Inputs[0])
		if id, ok := a.aliasIn(st, x); ok && st.objs[id].virtual {
			oi := a.objs[id]
			is := oi.class != nil && oi.class.IsSubclassOf(n.Class)
			c := a.constFold(n, b2i(is))
			a.replace(n, c)
			if a.emit {
				a.placeFold(b, c, n)
				a.g.RemoveNode(n)
				a.res.FoldedChecks++
			}
			return
		}
		a.replace(n, nil)
		a.defaultTransfer(b, n, st)

	case ir.OpInvoke:
		safe := a.calleeSafe(n, st)
		if safe == nil {
			a.defaultTransfer(b, n, st)
			return
		}
		// Pass 1: unsafe argument positions get the conservative
		// treatment — any virtual object referenced there is
		// materialized (paper §5.2). An object passed in both a safe
		// and an unsafe slot of the same call materializes here, and
		// pass 2 then sees it escaped and substitutes the real
		// reference.
		for i, in := range n.Inputs {
			if safe[i] {
				continue
			}
			r := a.resolveScalar(in)
			if id, ok := a.aliasIn(st, r); ok {
				if st.objs[id].virtual {
					a.materializeAt(st, id, b, n, n.Op.String())
				}
				r = st.objs[id].materialized
			}
			if a.emit && r != in {
				n.Inputs[i] = r
			}
		}
		// Pass 2: safe positions. A still-virtual object stays virtual
		// across the call — the summary proves no callee path observes
		// the slot, so null is passed in its place and the callee
		// executes identically. The call's FrameState keeps the
		// virtual object, so a deopt inside or after the call
		// rematerializes it like any other virtual value.
		for i, in := range n.Inputs {
			if !safe[i] {
				continue
			}
			r := a.resolveScalar(in)
			if id, ok := a.aliasIn(st, r); ok {
				if st.objs[id].virtual {
					if a.emit {
						a.eventSummaryKept(id, n, b)
						a.res.SummaryKeptVirtual++
						a.kept = append(a.kept, keptRec{call: n, arg: i, id: id})
						n.Inputs[i] = a.defaultValue(bc.KindRef)
					}
					continue
				}
				r = st.objs[id].materialized
			}
			if a.emit && r != in {
				n.Inputs[i] = r
			}
		}
		if a.emit && n.FrameState != nil {
			n.FrameState = a.rewriteState(n.FrameState, st)
		}

	default:
		a.defaultTransfer(b, n, st)
	}
}

// keptRec is one emit-phase record of a virtual object kept virtual in a
// call argument slot under a callee summary, for the strict-mode license
// re-check in checkRewrites.
type keptRec struct {
	call *ir.Node
	arg  int
	id   objID
}

// calleeSafe returns the per-argument no-escape licenses for a call from
// Config.CalleeNoEscape, or nil when no summary information applies (no
// provider, no argument that is a virtual object in st, unknown callee,
// arity mismatch, or nothing safe — the conservative default transfer is
// equivalent then). The provider is asked only when some argument is
// virtual, so a compile that never passes a virtual object to a call never
// makes the VM compute the program's summaries.
func (a *analyzer) calleeSafe(n *ir.Node, st *peaState) []bool {
	if a.conf.CalleeNoEscape == nil || !a.passesVirtual(n, st) {
		return nil
	}
	safe := a.conf.CalleeNoEscape(n)
	if len(safe) != len(n.Inputs) {
		return nil
	}
	for _, s := range safe {
		if s {
			return safe
		}
	}
	return nil
}

// passesVirtual reports whether some argument of call n is a virtual object
// in st.
func (a *analyzer) passesVirtual(n *ir.Node, st *peaState) bool {
	for _, in := range n.Inputs {
		if id, ok := a.aliasIn(st, in); ok && st.objs[id].virtual {
			return true
		}
	}
	return false
}

// defaultTransfer handles every operation with no special rule: "any
// virtual object that is referenced from such an operation will be
// materialized, and the input ... is replaced with the materialized value"
// (paper §5.2). In emit mode it also substitutes scalar replacements into
// the inputs and virtualizes the node's frame state.
func (a *analyzer) defaultTransfer(b *ir.Block, n *ir.Node, st *peaState) {
	for i, in := range n.Inputs {
		r := a.resolveScalar(in)
		if id, ok := a.aliasIn(st, r); ok {
			if st.objs[id].virtual {
				// The reason is the consuming operation: the paper's
				// "any virtual object referenced from such an
				// operation will be materialized". Op.String returns
				// a static name, so this stays allocation-free.
				a.materializeAt(st, id, b, n, n.Op.String())
			}
			r = st.objs[id].materialized
		}
		if a.emit && r != in {
			n.Inputs[i] = r
		}
	}
	if a.emit && n.FrameState != nil {
		n.FrameState = a.rewriteState(n.FrameState, st)
	}
}

// reaches reports whether virtual object `from` (transitively) references
// virtual object `to` through virtual field values.
func (a *analyzer) reaches(st *peaState, from, to objID) bool {
	if from == to {
		return true
	}
	seen := make([]bool, len(a.objs))
	var walk func(id objID) bool
	walk = func(id objID) bool {
		if id == to {
			return true
		}
		if seen[id] {
			return false
		}
		seen[id] = true
		os := st.get(id)
		if os == nil || !os.virtual {
			return false
		}
		for _, f := range os.fields {
			if fid, ok := a.aliasIn(st, f); ok && walk(fid) {
				return true
			}
		}
		return false
	}
	return walk(from)
}

// materializeAt turns a virtual object into an escaped one at the given
// position, inserting an OpMaterialize node (paper: "the object needs to
// be created and initialized with the current state of its fields at this
// point"). before == nil appends at the end of the block (edge
// materialization in a split predecessor). Referenced virtual objects are
// materialized first; the virtual reference graph is kept acyclic by the
// store transfer, so recursion terminates. reason names the cause for the
// observability event (see the reason* constants and defaultTransfer).
func (a *analyzer) materializeAt(st *peaState, id objID, b *ir.Block, before *ir.Node, reason string) *ir.Node {
	if os := st.objs[id]; !os.virtual {
		return os.materialized
	}
	os := st.mutable(id)
	key := matKey{site: siteKey(b, before), id: id}
	mat, ok := a.matMemo[key]
	if !ok {
		if a.matMemo == nil {
			a.matMemo = make(map[matKey]*ir.Node)
		}
		oi := a.objs[id]
		mat = a.g.NewNode(ir.OpMaterialize, bc.KindRef)
		mat.Class = oi.class
		mat.ElemKind = oi.elemKind
		mat.AuxInt = oi.length
		if before != nil {
			mat.BCI = before.BCI
		}
		a.matMemo[key] = mat
	}
	// Mark escaped before resolving fields; the reference graph is
	// acyclic so no field can (transitively) need this object again,
	// but self-checks stay cheap this way.
	os.virtual = false
	os.materialized = mat

	inputs := make([]*ir.Node, len(os.fields))
	for i, f := range os.fields {
		r := a.resolveScalar(f)
		if fid, ok := a.aliasIn(st, r); ok {
			if st.objs[fid].virtual {
				r = a.materializeAt(st, fid, b, before, reason)
			} else {
				r = st.objs[fid].materialized
			}
		}
		inputs[i] = r
	}
	mat.Inputs = inputs
	mat.AuxLock = os.lockDepth
	if a.emit && mat.Block == nil {
		beforeID := -1
		if before != nil {
			beforeID = before.ID
		}
		a.eventMaterialize(id, b, beforeID, reason)
		a.g.InsertBefore(b, mat, before)
		a.res.MaterializeSites++
	}
	return mat
}

// siteKey keys materialization memoization by position.
func siteKey(b *ir.Block, before *ir.Node) any {
	if before != nil {
		return before
	}
	return b
}
