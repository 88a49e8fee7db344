package pea

import (
	"fmt"
	mathbits "math/bits"

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
	// maxRounds bounds the fixpoint rounds; if the analysis has not
	// converged it bails out without transforming.
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
	a := &analyzer{g: g, conf: conf, sink: conf.Sink}
	return a.run()
}

func (a *analyzer) run() (Result, error) {
	g, conf := a.g, a.conf
	// Check before the first graph mutation (splitCriticalEdges), so an
	// already-blown budget leaves the graph untouched.
	if err := a.checkBudget("pea-entry"); err != nil {
		return Result{BailedOut: true}, err
	}
	splitCriticalEdges(g)
	if !a.anyVirtualizable() {
		// Without a virtual object nothing can be elided, replaced or
		// folded: the graph keeps its split edges and nothing else.
		return Result{}, nil
	}
	if a.sink.Traces() {
		a.method = g.Method.QualifiedName()
	}
	cfg, err := sched.Compute(g)
	if err != nil {
		return Result{}, fmt.Errorf("pea: %w", err)
	}
	a.cfg = cfg
	a.numOrig = g.NumNodeIDs()
	a.aliases = make([]objID, a.numOrig)
	for i := range a.aliases {
		a.aliases[i] = noObj
	}
	a.replaced = make([]*ir.Node, a.numOrig)
	a.entries = make([]peaState, len(cfg.RPO))
	a.exits = make([]peaState, len(cfg.RPO))
	a.visited = make([]bool, len(cfg.RPO))
	a.futureRef = make([][]bool, len(cfg.RPO))

	// Strict-mode self-checking: validate the analyzer's state at every
	// block boundary. The closure is nil at lower levels so the hot loop
	// pays a single pointer test per block.
	var checkAt func(b *ir.Block, st *peaState) error
	if conf.checkLevel() >= check.Strict {
		checkAt = a.checkState
	}

	// Phase A: fixpoint over block entry states (paper §5.4). Round 1
	// visits every block in RPO; back edges whose source has not been
	// visited yet are skipped, so loop headers start from the speculative
	// state. A later round only has to revisit blocks a back edge can
	// reach: it starts at the first loop header. Every block ahead of it
	// has all its predecessors ahead of it too, and so do the definitions
	// of the values it reads, so its states cannot change.
	loopStart := a.firstLoopHeader()
	converged := false
	for round := 1; round <= maxRounds; round++ {
		if err := a.checkBudget("pea-fixpoint"); err != nil {
			return Result{BailedOut: true, Rounds: a.res.Rounds}, err
		}
		a.res.Rounds = round
		a.sink.PEARound(a.method, round)
		from := 0
		if round > 1 {
			from = loopStart
		}
		changed := false
		for i := from; i < len(cfg.RPO); i++ {
			b := cfg.RPO[i]
			entry := a.computeEntry(b)
			if !a.visited[i] || !a.entries[i].equal(&entry) {
				changed = true
				if a.sink.Traces() {
					a.sink.PEAState(a.method, b.String(), entry.String())
				}
			}
			a.entries[i] = entry
			a.exits[i] = a.entries[i].clone()
			a.transferBlock(b, &a.exits[i])
			a.visited[i] = true
			a.transfers++
			if checkAt != nil {
				if err := checkAt(b, &a.exits[i]); err != nil {
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
	if err := a.checkBudget("pea-emit"); err != nil {
		return Result{BailedOut: true, Rounds: a.res.Rounds}, err
	}

	// Phase B: emit. First replay all merges (edge materializations, new
	// phis, existing-phi rewiring), then replay all transfers (node
	// removal, substitutions, frame-state virtualization).
	a.emit = true
	for _, n := range a.unplaced {
		a.prependEntry(n)
	}
	for i, b := range cfg.RPO {
		if len(b.Preds) >= 2 {
			merged := a.merge(b)
			if !merged.equal(&a.entries[i]) {
				return Result{}, fmt.Errorf("pea: emit merge diverged at %s:\n fix=%s\n got=%s",
					b, &a.entries[i], &merged)
			}
		}
	}
	for i, b := range cfg.RPO {
		out := a.entries[i].clone()
		a.transferBlock(b, &out)
		if checkAt != nil {
			if err := checkAt(b, &out); err != nil {
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

type matKey struct {
	// site is the *ir.Node the materialization precedes, or the
	// predecessor *ir.Block for edge materializations.
	site any
	id   objID
}

// noObj marks a node that aliases no object.
const noObj objID = -1

type analyzer struct {
	g    *ir.Graph
	cfg  *sched.CFG
	conf Config

	// sink receives structured analysis events (nil-safe); method is the
	// analyzed method's qualified name, computed once when the sink traces.
	sink   *obs.Sink
	method string

	// numOrig bounds the node IDs of the graph the analysis started from:
	// every node the analysis creates has an ID at or above it.
	numOrig int

	objs []*objInfo
	// aliases maps a value node's ID to the object id it refers to
	// (noObj: none), replaced a node's ID to its scalar replacement
	// (nil: none). Both grow as the analysis creates nodes.
	aliases  []objID
	replaced []*ir.Node

	// entries and exits hold each block's states, indexed by the block's
	// RPO position; visited marks the blocks the fixpoint has transferred.
	entries []peaState
	exits   []peaState
	visited []bool

	// Memo tables, each created on first write.
	phiMemo  map[phiKey]*ir.Node
	matMemo  map[matKey]*ir.Node
	foldMemo map[*ir.Node]*ir.Node // folded RefEq/InstanceOf -> const node

	// refNodes lists the values that can become aliases, and liveIn holds,
	// per RPO position, a bitset of refWords words over them: the values
	// live at the entry of the block on the pre-analysis graph. It
	// implements the paper's Figure 6a condition: an object id survives a
	// merge only if one of its aliases is still live there — a use in the
	// next loop iteration refers to the next execution of the allocation,
	// not to this object, and must not keep it alive.
	refNodes []*ir.Node
	refWords int
	liveIn   []uint64
	// futureRef freezes hasFutureRef decisions from the analysis phase
	// for replay during emit, per RPO position and object id.
	futureRef [][]bool
	// kept logs call arguments where a virtual object stayed virtual
	// under a callee summary (emit phase), re-validated against the
	// summary license by checkRewrites under strict checking.
	kept []keptRec

	zeroInt *ir.Node
	nullRef *ir.Node
	// unplaced lists the default values the fixpoint created, in creation
	// order.
	unplaced []*ir.Node

	// transfers counts the block transfers of the fixpoint, all rounds
	// together.
	transfers int

	emit bool
	res  Result
}

// checkBudget polls the compile budget at one of the analysis's
// cancellation points, emitting a pea_bailout event on an overrun. The
// method name is computed only on that path, so a passing poll allocates
// nothing.
func (a *analyzer) checkBudget(point string) error {
	if a.conf.Budget == nil {
		return nil
	}
	err := a.conf.Budget.Check(point, "", a.g.NumNodes())
	if err == nil {
		return nil
	}
	name := ""
	if a.g.Method != nil {
		name = a.g.Method.QualifiedName()
	}
	if be, ok := err.(*budget.Err); ok {
		be.Method = name
	}
	a.sink.PEABailout(name, err.Error())
	return err
}

// anyVirtualizable reports whether g has an allocation the analysis may
// virtualize.
func (a *analyzer) anyVirtualizable() bool {
	for _, b := range a.g.Blocks {
		for _, n := range b.Nodes {
			if (n.Op == ir.OpNew || n.Op == ir.OpNewArray) && a.virtualizableAlloc(n) {
				return true
			}
		}
	}
	return false
}

// firstLoopHeader returns the RPO position of the first block with a
// predecessor at or after its own position, or len(RPO) if the graph has
// no loop.
func (a *analyzer) firstLoopHeader() int {
	for i, b := range a.cfg.RPO {
		for _, p := range b.Preds {
			if a.cfg.Index(p) >= i {
				return i
			}
		}
	}
	return len(a.cfg.RPO)
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
func (a *analyzer) computeEntry(b *ir.Block) peaState {
	switch len(b.Preds) {
	case 0:
		return peaState{}
	case 1:
		if ex := a.exit(b.Preds[0]); ex != nil {
			return ex.clone()
		}
		return peaState{}
	default:
		return a.merge(b)
	}
}

// exit returns b's exit state, nil before b's first transfer.
func (a *analyzer) exit(b *ir.Block) *peaState {
	if i := a.cfg.Index(b); a.visited[i] {
		return &a.exits[i]
	}
	return nil
}

// idForAlloc assigns (or retrieves) the object id for an allocation site.
// An allocation's alias is its id from the first transfer on and never
// changes, so the alias table doubles as the site table.
func (a *analyzer) idForAlloc(n *ir.Node) objID {
	if id, ok := a.aliasOf(n); ok {
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
	a.setAlias(n, id)
	return id
}

// aliasOf returns the object id n refers to.
func (a *analyzer) aliasOf(n *ir.Node) (objID, bool) {
	if n.ID < len(a.aliases) {
		if id := a.aliases[n.ID]; id != noObj {
			return id, true
		}
	}
	return 0, false
}

// setAlias binds n to object id, or unbinds it when id is noObj.
func (a *analyzer) setAlias(n *ir.Node, id objID) {
	if id == noObj && n.ID >= len(a.aliases) {
		return
	}
	for n.ID >= len(a.aliases) {
		a.aliases = append(a.aliases, noObj)
	}
	a.aliases[n.ID] = id
}

// replace records r as n's scalar replacement, or retracts it when r is
// nil.
func (a *analyzer) replace(n, r *ir.Node) {
	if r == nil && n.ID >= len(a.replaced) {
		return
	}
	for n.ID >= len(a.replaced) {
		a.replaced = append(a.replaced, nil)
	}
	a.replaced[n.ID] = r
}

// resolveScalar chases the scalar-replacement table.
func (a *analyzer) resolveScalar(v *ir.Node) *ir.Node {
	for v != nil && v.ID < len(a.replaced) {
		r := a.replaced[v.ID]
		if r == nil {
			break
		}
		v = r
	}
	return v
}

// aliasIn resolves v to a live object id in st.
func (a *analyzer) aliasIn(st *peaState, v *ir.Node) (objID, bool) {
	if v == nil {
		return 0, false
	}
	id, ok := a.aliasOf(a.resolveScalar(v))
	if !ok || st.get(id) == nil {
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
// it on first use. The fixpoint leaves the graph alone: a node it creates
// is placed at the top of the entry block when emit starts.
func (a *analyzer) defaultValue(k bc.Kind) *ir.Node {
	p, op, kind := &a.zeroInt, ir.OpConst, bc.KindInt
	if k == bc.KindRef {
		p, op, kind = &a.nullRef, ir.OpConstNull, bc.KindRef
	}
	if *p == nil {
		*p = a.g.NewNode(op, kind)
		if a.emit {
			a.prependEntry(*p)
		} else {
			a.unplaced = append(a.unplaced, *p)
		}
	}
	return *p
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
	if a.foldMemo == nil {
		a.foldMemo = make(map[*ir.Node]*ir.Node)
	}
	a.foldMemo[n] = c
	return c
}

// virtualNode returns the OpVirtualObject node standing for id inside
// frame states, placing it in the entry block on first use.
func (a *analyzer) virtualNode(id objID) *ir.Node {
	oi := a.objs[id]
	if oi.virtual != nil {
		return oi.virtual
	}
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
	oi.virtual = v
	return v
}

// arrayLenConst returns the constant node for a virtual array's length.
func (a *analyzer) arrayLenConst(id objID) *ir.Node {
	oi := a.objs[id]
	if oi.lenConst == nil {
		oi.lenConst = a.g.NewNode(ir.OpConst, bc.KindInt)
		oi.lenConst.AuxInt = oi.length
	}
	return oi.lenConst
}

// placeFold ensures a memoized replacement const is placed (emit mode).
func (a *analyzer) placeFold(b *ir.Block, c, before *ir.Node) {
	if c.Block == nil {
		a.g.InsertBefore(b, c, before)
	}
}

// canAlias reports whether n is a value the analysis may bind to an
// object: an allocation, a reference load (which aliases the loaded field
// value) or a reference phi of the graph (Figure 6c). Liveness is tracked
// for these values only; hasFutureRef asks about no other.
func canAlias(n *ir.Node) bool {
	if n.Kind != bc.KindRef {
		return false
	}
	// oplint:ignore — the ops whose transfer or merge rule sets an alias;
	// every other value never aliases an object.
	switch n.Op {
	case ir.OpNew, ir.OpNewArray, ir.OpLoadField, ir.OpLoadIndexed, ir.OpPhi:
		return true
	}
	return false
}

// buildRefIndex computes block-level SSA liveness for the values that can
// become aliases, on the pre-analysis graph: liveIn of a block holds every
// such value defined before it and possibly used at or after it (node
// inputs, frame-state slots, and phi inputs, the latter counting as uses at
// the end of the corresponding predecessor). The index is computed at the
// first merge that asks — the fixpoint does not change the graph, and a
// graph without such a merge never pays for it — and shared by all rounds
// and, through futureRef, the emit phase so that their decisions agree.
func (a *analyzer) buildRefIndex() {
	rpo := a.cfg.RPO
	refNum := make([]int32, a.numOrig) // 1-based position in refNodes by node ID; 0: none
	number := func(n *ir.Node) {
		if canAlias(n) {
			a.refNodes = append(a.refNodes, n)
			refNum[n.ID] = int32(len(a.refNodes))
		}
	}
	for _, b := range rpo {
		for _, phi := range b.Phis {
			number(phi)
		}
		for _, n := range b.Nodes {
			number(n)
		}
	}
	w := (len(a.refNodes) + 63) / 64
	a.refWords = w
	sets := make([]uint64, 3*len(rpo)*w)
	gen, defs, live := sets[:len(rpo)*w], sets[len(rpo)*w:2*len(rpo)*w], sets[2*len(rpo)*w:]
	bit := func(n *ir.Node) (int, uint64) {
		if n == nil || n.ID >= len(refNum) || refNum[n.ID] == 0 {
			return -1, 0
		}
		r := int(refNum[n.ID]) - 1
		return r / 64, 1 << (r % 64)
	}
	for i, b := range rpo {
		g, d := gen[i*w:(i+1)*w], defs[i*w:(i+1)*w]
		use := func(n *ir.Node) {
			if k, m := bit(n); k >= 0 && d[k]&m == 0 {
				g[k] |= m
			}
		}
		def := func(n *ir.Node) {
			if k, m := bit(n); k >= 0 {
				d[k] |= m
			}
		}
		visit := func(n *ir.Node) {
			for _, in := range n.Inputs {
				use(in)
			}
			if n.FrameState != nil {
				n.FrameState.ForEachValue(use)
			}
			def(n)
		}
		for _, phi := range b.Phis {
			def(phi)
		}
		for _, n := range b.Nodes {
			visit(n)
		}
		if b.Term != nil {
			visit(b.Term)
		}
		// Phi inputs at successors are uses at the end of this block.
		for _, s := range b.Succs {
			for j, p := range s.Preds {
				if p != b {
					continue
				}
				for _, phi := range s.Phis {
					use(phi.Inputs[j])
				}
			}
		}
	}

	copy(live, gen)
	for changed := true; changed; {
		changed = false
		for i := len(rpo) - 1; i >= 0; i-- {
			in, d := live[i*w:(i+1)*w], defs[i*w:(i+1)*w]
			for _, s := range rpo[i].Succs {
				j := a.cfg.Index(s)
				for k, out := range live[j*w : (j+1)*w] {
					if add := out &^ d[k] &^ in[k]; add != 0 {
						in[k] |= add
						changed = true
					}
				}
			}
		}
	}
	a.liveIn = live
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
	i := a.cfg.Index(b)
	memo := a.futureRef[i]
	if a.emit {
		// The emit phase mutates phi inputs (materialized values are
		// substituted), so the liveness question must be answered
		// exactly as the converged analysis answered it.
		return int(id) < len(memo) && memo[id]
	}
	r := a.computeFutureRef(i, b, id)
	for int(id) >= len(memo) {
		memo = append(memo, false)
	}
	memo[id] = r
	a.futureRef[i] = memo
	return r
}

func (a *analyzer) computeFutureRef(i int, b *ir.Block, id objID) bool {
	if a.liveIn == nil {
		a.buildRefIndex()
	}
	for k, bits := range a.liveIn[i*a.refWords : (i+1)*a.refWords] {
		for ; bits != 0; bits &= bits - 1 {
			n := a.refNodes[k*64+mathbits.TrailingZeros64(bits)]
			if nid, ok := a.aliasOf(n); ok && nid == id {
				return true
			}
		}
	}
	for _, phi := range b.Phis {
		if phi.Kind != bc.KindRef || a.ours(phi) {
			continue
		}
		for _, in := range phi.Inputs {
			if in == nil {
				continue
			}
			if nid, ok := a.aliasOf(a.resolveScalar(in)); ok && nid == id {
				return true
			}
		}
	}
	return false
}

// ours reports whether the analysis created n.
func (a *analyzer) ours(n *ir.Node) bool { return n.ID >= a.numOrig }
