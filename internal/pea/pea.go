package pea

import (
	"fmt"

	"pea/internal/bc"
	"pea/internal/budget"
	"pea/internal/check"
	"pea/internal/ir"
	"pea/internal/obs"
	"pea/internal/sched"
)

// Config tunes the analysis.
type Config struct {
	// AllowAlloc, when non-nil, restricts which allocation sites may be
	// virtualized. The flow-insensitive baseline (package ea) uses it
	// to limit scalar replacement to provably never-escaping objects.
	AllowAlloc func(n *ir.Node) bool
	// DisableAliasLiveness is an ablation switch: it turns off the
	// Figure 6a rule that lets dead objects leave the state at merges,
	// so mixed merges always materialize. Used to quantify how much of
	// PEA's benefit depends on that rule.
	DisableAliasLiveness bool
	// DisableArrays is an ablation switch: constant-length arrays are
	// never virtualized.
	DisableArrays bool
	// CalleeNoEscape, when non-nil, consults inter-procedural escape
	// summaries (internal/summary) at OpInvoke nodes: it returns, per
	// argument position, whether every possible callee provably never
	// observes that argument — not a load, store, comparison, monitor,
	// return, or further escaping call on any path. A true position
	// licenses the transfer to keep a virtual object virtual across the
	// call and pass null in the argument slot: the callee executes
	// identically because it never looks at the value, and the call's
	// FrameState still carries the virtual object, so deoptimization
	// rematerializes it exactly as for any other node. nil (or a nil
	// result for a particular call) falls back to the conservative
	// default: every argument escapes (paper §5.2).
	CalleeNoEscape func(call *ir.Node) []bool
	// Budget, when non-nil, is the per-compile resource bound. The
	// analysis polls it at the start of every fixpoint round and before
	// the emit phase — its cooperative cancellation points — and unwinds
	// with a structured budget error (wrapping budget.ErrBudget) when the
	// compile deadline or IR node bound is exceeded, after emitting a
	// pea_bailout event. This is the same graceful-degradation shape as
	// the paper's bounded fixpoint (§3): the method simply stays
	// interpreted. nil (the default) adds a single pointer test per round.
	Budget *budget.Budget
	// Check selects the sanitizer level (floored by the PEA_CHECK
	// environment variable). At check.Strict the analyzer validates its
	// own state invariants at every block boundary of both the fixpoint
	// and the emit phase; lower levels add no work here (the graph-level
	// checks run in the caller's pipeline).
	Check check.Level
	// Sink, when non-nil, receives structured analysis events:
	// virtualizations, materializations with reason and position, merge
	// materializations, lock elisions, fixpoint rounds, and bailouts. Its
	// ring keeps materializations and summary-kept arguments with their
	// allocation site even when it does not trace.
	Sink *obs.Sink
}

const (
	// maxVirtualArrayLength bounds the constant array lengths that are
	// scalar-replaced.
	maxVirtualArrayLength = 32
	// maxRounds bounds whole-graph fixpoint rounds; if the analysis has
	// not converged it bails out without transforming.
	maxRounds = 16
)

// Result reports what the analysis did.
type Result struct {
	// Changed is true if the graph was transformed.
	Changed bool
	// BailedOut is true if the fixpoint did not converge and the graph
	// was left untouched.
	BailedOut bool
	// Rounds is the number of fixpoint rounds used.
	Rounds int
	// VirtualizedAllocs counts allocation sites removed (scalar
	// replacement).
	VirtualizedAllocs int
	// MaterializeSites counts OpMaterialize nodes inserted.
	MaterializeSites int
	// ElidedMonitors counts MonitorEnter/Exit nodes removed (lock
	// elision).
	ElidedMonitors int
	// ScalarizedLoads counts loads replaced by known field values.
	ScalarizedLoads int
	// FoldedChecks counts reference equalities and type checks resolved
	// at compile time.
	FoldedChecks int
	// SummaryKeptVirtual counts call arguments where a virtual object
	// stayed virtual across a non-inlined call because the callee
	// summary proved the position unobserved (Config.CalleeNoEscape).
	SummaryKeptVirtual int
}

// Run performs Partial Escape Analysis with scalar replacement and lock
// elision on g, transforming it in place. The graph must be verified; the
// result is verified by the caller's pipeline (tests always do).
func Run(g *ir.Graph, conf Config) (Result, error) {
	sink := conf.Sink
	if conf.Budget != nil {
		// Check before the first graph mutation (splitCriticalEdges), so
		// an already-blown budget leaves the graph untouched.
		name := ""
		if g.Method != nil {
			name = g.Method.QualifiedName()
		}
		if err := conf.Budget.Check("pea-entry", name, g.NumNodes()); err != nil {
			sink.PEABailout(name, err.Error())
			return Result{BailedOut: true}, err
		}
	}
	splitCriticalEdges(g)
	a := &analyzer{
		g:         g,
		conf:      conf,
		sink:      sink,
		allocIDs:  make(map[*ir.Node]objID),
		aliases:   make(map[*ir.Node]objID),
		replaced:  make(map[*ir.Node]*ir.Node),
		entries:   make(map[*ir.Block]*peaState),
		exits:     make(map[*ir.Block]*peaState),
		phiMemo:   make(map[phiKey]*ir.Node),
		matMemo:   make(map[matKey]*ir.Node),
		virtMemo:  make(map[objID]*ir.Node),
		lenMemo:   make(map[objID]*ir.Node),
		foldMemo:  make(map[*ir.Node]*ir.Node),
		ourPhis:   make(map[*ir.Node]bool),
		futureRef: make(map[futKey]bool),
	}
	if sink.Traces() {
		a.method = g.Method.QualifiedName()
	}
	cfg, err := sched.Compute(g)
	if err != nil {
		return Result{}, fmt.Errorf("pea: %w", err)
	}
	a.cfg = cfg
	a.buildRefIndex()

	// Strict-mode self-checking: validate the analyzer's state at every
	// block boundary. The closure is nil at lower levels so the hot loop
	// pays a single pointer test per block.
	var checkAt func(b *ir.Block, st *peaState) error
	if conf.checkLevel() >= check.Strict {
		checkAt = a.checkState
	}

	// Phase A: whole-graph fixpoint over block entry states.
	converged := false
	for round := 1; round <= maxRounds; round++ {
		if conf.Budget != nil {
			if err := conf.Budget.Check("pea-fixpoint", a.method, g.NumNodes()); err != nil {
				a.sink.PEABailout(a.method, err.Error())
				return Result{BailedOut: true, Rounds: a.res.Rounds}, err
			}
		}
		a.res.Rounds = round
		a.sink.PEARound(a.method, round)
		changed := false
		for _, b := range cfg.RPO {
			entry := a.computeEntry(b)
			if old := a.entries[b]; old == nil || !old.equal(entry) {
				changed = true
				if a.sink.Traces() {
					a.sink.PEAState(a.method, b.String(), entry.String())
				}
			}
			a.entries[b] = entry
			a.exits[b] = a.transferBlock(b, entry.clone())
			if checkAt != nil {
				if err := checkAt(b, a.exits[b]); err != nil {
					a.sink.CheckViolation("pea", a.method, err.Error(), "")
					return Result{}, err
				}
			}
		}
		if !changed {
			converged = true
			a.sink.PEAFixpoint(a.method, round)
			break
		}
	}
	if !converged {
		if a.sink.Traces() {
			a.sink.PEABailout(a.method, fmt.Sprintf("no fixpoint after %d rounds", a.res.Rounds))
		}
		return Result{BailedOut: true, Rounds: a.res.Rounds}, nil
	}
	if len(a.allocIDs) == 0 {
		return a.res, nil // nothing to do
	}
	if conf.Budget != nil {
		if err := conf.Budget.Check("pea-emit", a.method, g.NumNodes()); err != nil {
			a.sink.PEABailout(a.method, err.Error())
			return Result{BailedOut: true, Rounds: a.res.Rounds}, err
		}
	}

	// Phase B: emit. First replay all merges (edge materializations, new
	// phis, existing-phi rewiring), then replay all transfers (node
	// removal, substitutions, frame-state virtualization).
	a.emit = true
	for _, b := range cfg.RPO {
		if len(b.Preds) >= 2 {
			merged := a.merge(b)
			if !merged.equal(a.entries[b]) {
				return Result{}, fmt.Errorf("pea: emit merge diverged at %s:\n fix=%s\n got=%s",
					b, a.entries[b], merged)
			}
		}
	}
	for _, b := range cfg.RPO {
		out := a.transferBlock(b, a.entries[b].clone())
		if checkAt != nil {
			if err := checkAt(b, out); err != nil {
				a.sink.CheckViolation("pea", a.method, err.Error(), "")
				return Result{}, err
			}
		}
	}
	if checkAt != nil {
		if err := a.checkRewrites(); err != nil {
			a.sink.CheckViolation("pea", a.method, err.Error(), "")
			return Result{}, err
		}
	}
	// Final sweep: phi inputs are not node inputs of any transferred
	// instruction, so scalar replacements (removed loads, folded checks)
	// must be substituted into them explicitly. Reference phis that
	// needed object handling were rewritten (or removed) by the merge
	// processing above; what remains is plain value substitution.
	for _, b := range cfg.RPO {
		for _, phi := range b.Phis {
			for i, in := range phi.Inputs {
				if in == nil {
					continue
				}
				if r := a.resolveScalar(in); r != in {
					phi.Inputs[i] = r
				}
			}
		}
	}
	// Guards whose trapping node was virtualized or scalar-replaced away
	// can no longer trap (a virtual object is never null, a virtualized
	// constant-length array never has a negative size): retire the
	// OnException terminator and let the dead dispatch chain fall off the
	// graph. RemoveDeadBlocks prunes the handler's matching predecessor
	// slots and phi inputs.
	retired := false
	for _, b := range g.Blocks {
		t := b.Term
		if t == nil || t.Op != ir.OpOnException {
			continue
		}
		if len(b.Nodes) > 0 && b.Nodes[len(b.Nodes)-1] == t.Inputs[0] {
			continue
		}
		gt := g.NewNode(ir.OpGoto, bc.KindVoid)
		gt.BCI = t.BCI
		gt.Block = b
		b.Term = gt
		b.Succs = b.Succs[:1]
		retired = true
	}
	if retired {
		g.RemoveDeadBlocks()
	}
	a.res.Changed = a.res.VirtualizedAllocs > 0 || a.res.ElidedMonitors > 0 ||
		a.res.ScalarizedLoads > 0 || a.res.FoldedChecks > 0
	return a.res, nil
}

type phiKey struct {
	block *ir.Block
	id    objID
	field int // -1 for the materialized-value phi
}

type futKey struct {
	block *ir.Block
	id    objID
}

type matKey struct {
	// site is the *ir.Node the materialization precedes, or the
	// predecessor *ir.Block for edge materializations.
	site any
	id   objID
}

type analyzer struct {
	g    *ir.Graph
	cfg  *sched.CFG
	conf Config

	// sink receives structured analysis events (nil-safe); method is the
	// analyzed method's qualified name, computed once when the sink traces.
	sink   *obs.Sink
	method string

	objs     []*objInfo
	allocIDs map[*ir.Node]objID // allocation site -> id (stable across rounds)
	aliases  map[*ir.Node]objID // value node -> id it refers to
	replaced map[*ir.Node]*ir.Node

	entries map[*ir.Block]*peaState
	exits   map[*ir.Block]*peaState

	phiMemo  map[phiKey]*ir.Node
	matMemo  map[matKey]*ir.Node
	virtMemo map[objID]*ir.Node    // OpVirtualObject per id
	lenMemo  map[objID]*ir.Node    // constant length node per virtual array
	foldMemo map[*ir.Node]*ir.Node // folded RefEq/InstanceOf -> const node
	ourPhis  map[*ir.Node]bool     // phis created by this analysis

	// liveIn[b] holds the reference-kind SSA values live at the entry
	// of b, computed once on the pre-analysis graph. It implements the
	// paper's Figure 6a condition: an object id survives a merge only
	// if one of its aliases is still live there — a use in the next
	// loop iteration refers to the next execution of the allocation,
	// not to this object, and must not keep it alive.
	liveIn map[*ir.Block]map[*ir.Node]bool
	// futureRef freezes hasFutureRef decisions from the analysis phase
	// for replay during emit.
	futureRef map[futKey]bool
	// kept logs call arguments where a virtual object stayed virtual
	// under a callee summary (emit phase), re-validated against the
	// summary license by checkRewrites under strict checking.
	kept []keptRec

	zeroInt *ir.Node
	nullRef *ir.Node

	emit bool
	res  Result
}

// splitCriticalEdges inserts an empty block on every edge from a
// multi-successor block to a multi-predecessor block, so that
// materializations required "at the corresponding predecessor" of a merge
// (paper §5.3) have a place to live that executes only on that edge.
func splitCriticalEdges(g *ir.Graph) {
	blocks := append([]*ir.Block(nil), g.Blocks...)
	for _, b := range blocks {
		if len(b.Succs) < 2 {
			continue
		}
		for i, s := range b.Succs {
			if len(s.Preds) < 2 {
				continue
			}
			e := g.NewBlock()
			gt := g.NewNode(ir.OpGoto, bc.KindVoid)
			gt.Block = e
			e.Term = gt
			e.Preds = []*ir.Block{b}
			e.Succs = []*ir.Block{s}
			b.Succs[i] = e
			// Replace the matching pred slot. With duplicate edges
			// (both If arms targeting s), successive splits take
			// successive occurrences, matching the phi-input order
			// established by the graph builder.
			for j, p := range s.Preds {
				if p == b {
					s.Preds[j] = e
					break
				}
			}
		}
	}
}

// computeEntry produces the entry state of b during analysis.
func (a *analyzer) computeEntry(b *ir.Block) *peaState {
	switch len(b.Preds) {
	case 0:
		return newPeaState()
	case 1:
		if ex := a.exits[b.Preds[0]]; ex != nil {
			return ex.clone()
		}
		return newPeaState()
	default:
		return a.merge(b)
	}
}

// idForAlloc assigns (or retrieves) the object id for an allocation site.
func (a *analyzer) idForAlloc(n *ir.Node) objID {
	if id, ok := a.allocIDs[n]; ok {
		return id
	}
	id := objID(len(a.objs))
	oi := &objInfo{id: id, allocSite: n}
	if n.Op == ir.OpNew {
		oi.class = n.Class
	} else {
		oi.elemKind = n.ElemKind
		oi.length = n.Inputs[0].AuxInt
	}
	a.objs = append(a.objs, oi)
	a.allocIDs[n] = id
	a.aliases[n] = id
	return id
}

// resolveScalar chases the scalar-replacement map.
func (a *analyzer) resolveScalar(v *ir.Node) *ir.Node {
	for {
		r, ok := a.replaced[v]
		if !ok {
			return v
		}
		v = r
	}
}

// aliasIn resolves v to a live object id in st.
func (a *analyzer) aliasIn(st *peaState, v *ir.Node) (objID, bool) {
	if v == nil {
		return 0, false
	}
	id, ok := a.aliases[a.resolveScalar(v)]
	if !ok {
		return 0, false
	}
	if _, live := st.objs[id]; !live {
		return 0, false
	}
	return id, true
}

// prependEntry places n at the very top of the entry block, so it
// dominates (and precedes in execution order) every possible use — the
// entry block may contain real code when earlier phases merged blocks.
func (a *analyzer) prependEntry(n *ir.Node) *ir.Node {
	entry := a.g.Entry()
	var first *ir.Node
	if len(entry.Nodes) > 0 {
		first = entry.Nodes[0]
	}
	a.g.InsertBefore(entry, n, first)
	return n
}

// defaultValue returns the canonical zero value node for a kind, creating
// it at the top of the entry block on first use.
func (a *analyzer) defaultValue(k bc.Kind) *ir.Node {
	if k == bc.KindRef {
		if a.nullRef == nil {
			a.nullRef = a.prependEntry(a.g.NewNode(ir.OpConstNull, bc.KindRef))
		}
		return a.nullRef
	}
	if a.zeroInt == nil {
		a.zeroInt = a.prependEntry(a.g.NewNode(ir.OpConst, bc.KindInt))
	}
	return a.zeroInt
}

// constFold returns (creating once) a constant node used to replace the
// folded check n.
func (a *analyzer) constFold(n *ir.Node, val int64) *ir.Node {
	if c, ok := a.foldMemo[n]; ok {
		c.AuxInt = val
		return c
	}
	c := a.g.NewNode(ir.OpConst, bc.KindInt)
	c.AuxInt = val
	c.BCI = n.BCI
	a.foldMemo[n] = c
	return c
}

// virtualNode returns the OpVirtualObject node standing for id inside
// frame states, placing it in the entry block on first use.
func (a *analyzer) virtualNode(id objID) *ir.Node {
	if v, ok := a.virtMemo[id]; ok {
		return v
	}
	oi := a.objs[id]
	v := a.g.NewNode(ir.OpVirtualObject, bc.KindRef)
	v.AuxInt = int64(id)
	v.Class = oi.class
	v.ElemKind = oi.elemKind
	v.AuxLen = oi.length
	// Carry the allocation site so deopt-time rematerialization can
	// attribute the materialized object back to the `new` it replaces.
	if site := oi.allocSite; site != nil {
		v.Method = site.Method
		v.BCI = site.BCI
	}
	a.prependEntry(v)
	a.virtMemo[id] = v
	return v
}

// arrayLenConst returns the constant node for a virtual array's length.
func (a *analyzer) arrayLenConst(id objID) *ir.Node {
	if c, ok := a.lenMemo[id]; ok {
		return c
	}
	c := a.g.NewNode(ir.OpConst, bc.KindInt)
	c.AuxInt = a.objs[id].length
	a.lenMemo[id] = c
	return c
}

// placeFold ensures a memoized replacement const is placed (emit mode).
func (a *analyzer) placeFold(b *ir.Block, c, before *ir.Node) {
	if c.Block == nil {
		a.g.InsertBefore(b, c, before)
	}
}

// buildRefIndex computes block-level SSA liveness for reference-kind
// values on the pre-analysis graph: liveIn[b] contains every ref value
// defined before b and possibly used at or after b (node inputs,
// frame-state slots, and phi inputs, the latter counting as uses at the
// end of the corresponding predecessor). The index is computed once and
// shared by all rounds and the emit phase so that their decisions agree.
func (a *analyzer) buildRefIndex() {
	isRef := func(n *ir.Node) bool { return n != nil && n.Kind == bc.KindRef }

	gen := make(map[*ir.Block]map[*ir.Node]bool, len(a.g.Blocks))
	defs := make(map[*ir.Block]map[*ir.Node]bool, len(a.g.Blocks))
	for _, b := range a.g.Blocks {
		gen[b] = make(map[*ir.Node]bool)
		defs[b] = make(map[*ir.Node]bool)
	}
	for _, b := range a.g.Blocks {
		use := func(n *ir.Node) {
			if isRef(n) && !defs[b][n] {
				gen[b][n] = true
			}
		}
		visit := func(n *ir.Node) {
			for _, in := range n.Inputs {
				use(in)
			}
			if n.FrameState != nil {
				n.FrameState.ForEachValue(use)
			}
			if isRef(n) {
				defs[b][n] = true
			}
		}
		for _, phi := range b.Phis {
			if isRef(phi) {
				defs[b][phi] = true
			}
		}
		for _, n := range b.Nodes {
			visit(n)
		}
		if b.Term != nil {
			visit(b.Term)
		}
		// Phi inputs at successors are uses at the end of this block.
		for _, s := range b.Succs {
			for i, p := range s.Preds {
				if p != b {
					continue
				}
				for _, phi := range s.Phis {
					use(phi.Inputs[i])
				}
			}
		}
	}

	a.liveIn = make(map[*ir.Block]map[*ir.Node]bool, len(a.g.Blocks))
	for _, b := range a.g.Blocks {
		set := make(map[*ir.Node]bool, len(gen[b]))
		for n := range gen[b] {
			set[n] = true
		}
		a.liveIn[b] = set
	}
	for changed := true; changed; {
		changed = false
		for i := len(a.cfg.RPO) - 1; i >= 0; i-- {
			b := a.cfg.RPO[i]
			in := a.liveIn[b]
			for _, s := range b.Succs {
				for n := range a.liveIn[s] {
					if !defs[b][n] && !in[n] {
						in[n] = true
						changed = true
					}
				}
			}
		}
	}
}

// hasFutureRef reports whether object id can still be referenced at or
// after block b: one of its aliases is live at b's entry, or a phi at b
// merges one of its aliases. Ids without such a reference are dead and
// leave the state (Figure 6a: "only Ids that ... have at least one common
// alias will survive the merge") — in particular, a mixed virtual/escaped
// merge of a dead object must not materialize it.
func (a *analyzer) hasFutureRef(b *ir.Block, id objID) bool {
	if a.conf.DisableAliasLiveness {
		return true
	}
	key := futKey{b, id}
	if a.emit {
		// The emit phase mutates phi inputs (materialized values are
		// substituted), so the liveness question must be answered
		// exactly as the converged analysis answered it.
		return a.futureRef[key]
	}
	r := a.computeFutureRef(b, id)
	a.futureRef[key] = r
	return r
}

func (a *analyzer) computeFutureRef(b *ir.Block, id objID) bool {
	live := a.liveIn[b]
	for n, nid := range a.aliases {
		if nid != id {
			continue
		}
		if live[n] {
			return true
		}
	}
	for _, phi := range b.Phis {
		if phi.Kind != bc.KindRef || a.ourPhis[phi] {
			continue
		}
		for _, in := range phi.Inputs {
			if in == nil {
				continue
			}
			if nid, ok := a.aliases[a.resolveScalar(in)]; ok && nid == id {
				return true
			}
		}
	}
	return false
}
