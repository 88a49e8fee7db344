package opt

import (
	"fmt"

	"pea/internal/bc"
	"pea/internal/interp"
	"pea/internal/ir"
	"pea/internal/obs"
	"pea/internal/summary"
)

// Inliner replaces call sites with callee bodies. Static and direct calls
// inline immediately; virtual calls are first devirtualized via exact
// receiver types, class hierarchy analysis, or a monomorphic call-site
// profile. Frame states of inlined code are chained to the caller's state
// at the call site (paper §2: "a frame state thus contains a reference to
// an outer frame state, which is the caller's state").
type Inliner struct {
	// BuildGraph builds (or fetches a cached) IR graph for a callee. The
	// inliner never writes to the graph: splicing clones it.
	BuildGraph func(m *bc.Method) (*ir.Graph, error)
	// Program provides the class hierarchy for devirtualization.
	Program *bc.Program
	// Profile is read by nothing: devirtualization is exact-type/CHA only,
	// since a profile-only target is unsound without a guard, which is why
	// non-speculative cache keys carry no profile fingerprint. The field
	// stays only because the benchmark pipeline (benchmarks/pipeline.go)
	// still sets it.
	Profile *interp.Profile

	// MaxCalleeCode is the largest callee bytecode size inlined
	// (default 80).
	MaxCalleeCode int
	// MaxGraphNodes stops inlining when the caller graph grows beyond
	// this (default 2000).
	MaxGraphNodes int
	// MaxDepth bounds the inlining depth via frame-state chain length
	// (default 6).
	MaxDepth int
	// Sink, when non-nil, receives an inline event per inlined call site.
	Sink *obs.Sink

	// Summaries is read by nothing: sites inline in block order, and the
	// summary set reaches the compile only through PEA's
	// pea.Config.CalleeNoEscape. The field stays only because the
	// benchmark pipeline (benchmarks/pipeline.go) still sets it.
	Summaries *summary.Set

	// built keeps every callee graph BuildGraph returned. An Inliner
	// lives for one compile, so a callee spliced in at several sites is
	// built once per compile.
	built map[*bc.Method]*ir.Graph
}

// calleeGraph returns m's graph for cloning, building it on first use.
func (in *Inliner) calleeGraph(m *bc.Method) (*ir.Graph, error) {
	if g := in.built[m]; g != nil {
		return g, nil
	}
	g, err := in.BuildGraph(m)
	if err != nil {
		return nil, err
	}
	if in.built == nil {
		in.built = make(map[*bc.Method]*ir.Graph)
	}
	in.built[m] = g
	return g, nil
}

// Name implements Phase.
func (in *Inliner) Name() string { return "inline" }

func (in *Inliner) maxCalleeCode() int {
	if in.MaxCalleeCode > 0 {
		return in.MaxCalleeCode
	}
	return 80
}

func (in *Inliner) maxGraphNodes() int {
	if in.MaxGraphNodes > 0 {
		return in.MaxGraphNodes
	}
	return 2000
}

func (in *Inliner) maxDepth() int {
	if in.MaxDepth > 0 {
		return in.MaxDepth
	}
	return 6
}

// Run implements Phase. It repeatedly inlines eligible call sites until
// none remain or budgets are exhausted.
func (in *Inliner) Run(g *ir.Graph) (bool, error) {
	changed := false
	for rounds := 0; rounds < 10; rounds++ {
		site := in.pickSite(g)
		if site == nil {
			return changed, nil
		}
		if err := in.inlineSite(g, site); err != nil {
			return changed, err
		}
		changed = true
	}
	return changed, nil
}

// pickSite returns the first inlinable invoke in block order, or nil.
func (in *Inliner) pickSite(g *ir.Graph) *ir.Node {
	if g.NumNodes() > in.maxGraphNodes() {
		return nil
	}
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if n.Op != ir.OpInvoke {
				continue
			}
			// A guarded invoke's trap routes to the caller's dispatch
			// chain; splicing the callee body in would let its throws
			// bypass that chain. Such sites stay calls.
			if b.Term != nil && b.Term.Op == ir.OpOnException && b.Term.Inputs[0] == n {
				continue
			}
			if in.resolveTarget(n) == nil || n.FrameState.Depth() > in.maxDepth() {
				continue
			}
			return n
		}
	}
	return nil
}

// resolveTarget returns the unique callee implementation for the invoke,
// or nil if the site cannot be inlined.
func (in *Inliner) resolveTarget(n *ir.Node) *bc.Method {
	callee := n.Method
	// oplint:ignore — n is an OpInvoke, so Aux2 is one of the three
	// invoke kinds by construction.
	switch n.Aux2 {
	case bc.OpInvokeStatic, bc.OpInvokeDirect:
		// Direct: the target is exact.
	case bc.OpInvokeVirtual:
		callee = in.devirtualize(n)
		if callee == nil {
			return nil
		}
	default:
		return nil
	}
	if len(callee.Code) > in.maxCalleeCode() {
		return nil
	}
	// Callees that raise or catch keep their own frame: an inlined throw
	// would need the caller's dispatch chains re-derived around the
	// spliced body, and an inlined handler would need its table scoped to
	// cloned blocks. Neither transformation exists yet, so such callees
	// stay calls (the invoke itself can still be guarded by the caller).
	if len(callee.ExceptionTable) > 0 {
		return nil
	}
	for i := range callee.Code {
		if callee.Code[i].Op == bc.OpThrow {
			return nil
		}
	}
	// No recursive inlining: the callee must not already be on the
	// frame-state chain.
	for fs := n.FrameState; fs != nil; fs = fs.Outer {
		if fs.Method == callee {
			return nil
		}
	}
	return callee
}

// devirtualize resolves a virtual call to a unique target using the exact
// receiver type when the receiver is an allocation, else class hierarchy
// analysis (all loaded classes implementing the slot agree).
func (in *Inliner) devirtualize(n *ir.Node) *bc.Method {
	decl := n.Method
	recv := n.Inputs[0]
	if recv.Op == ir.OpNew || (recv.Op == ir.OpMaterialize && recv.Class != nil) {
		return recv.Class.VTable[decl.VSlot]
	}
	if in.Program == nil {
		return nil
	}
	// CHA: the whole declaring hierarchy resolves the slot to one
	// implementation.
	if ts := in.Program.VirtualTargets(decl); len(ts) == 1 {
		return ts[0]
	}
	return nil
}

// inlineSite splices the callee's body in place of the invoke.
func (in *Inliner) inlineSite(g *ir.Graph, invoke *ir.Node) error {
	callee := in.resolveTarget(invoke)
	if callee == nil {
		return fmt.Errorf("inline: unresolvable site %s", invoke)
	}
	cg, err := in.calleeGraph(callee)
	if err != nil {
		return fmt.Errorf("inline: building %s: %w", callee.QualifiedName(), err)
	}
	if in.Sink.Traces() {
		in.Sink.Inline(g.Method.QualifiedName(), callee.QualifiedName(),
			fmt.Sprintf("v%d", invoke.ID))
	}

	// The caller's state during the call: the invoke's before-state with
	// the arguments popped. Inner frame states chain to it.
	during := invoke.FrameState.Copy()
	nargs := callee.NumArgs()
	if len(during.Stack) < nargs {
		return fmt.Errorf("inline: state at %s has %d stack entries for %d args",
			callee.QualifiedName(), len(during.Stack), nargs)
	}
	during.Stack = during.Stack[:len(during.Stack)-nargs]

	// Split the invoke's block: `head` keeps everything before the
	// invoke; `cont` receives everything after it plus the terminator.
	head := invoke.Block
	cont := g.NewBlock()
	idx := -1
	for i, x := range head.Nodes {
		if x == invoke {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("inline: invoke not found in its block")
	}
	after := append([]*ir.Node(nil), head.Nodes[idx+1:]...)
	head.Nodes = head.Nodes[:idx]
	for _, x := range after {
		x.Block = cont
	}
	cont.Nodes = after
	cont.Term = head.Term
	cont.Term.Block = cont
	cont.Succs = head.Succs
	for _, s := range cont.Succs {
		for i, p := range s.Preds {
			if p == head {
				s.Preds[i] = cont
			}
		}
	}
	head.Term = nil
	head.Succs = nil

	// Clone the callee graph into g.
	cl := &cloner{
		g:      g,
		callee: callee,
		args:   invoke.Inputs,
		outer:  during,
		nodes:  make(map[*ir.Node]*ir.Node),
		blocks: make(map[*ir.Block]*ir.Block),
		states: make(map[*ir.FrameState]*ir.FrameState),
	}
	for _, cb := range cg.Blocks {
		cl.blocks[cb] = g.NewBlock()
	}
	var returns []*ir.Node // cloned return terminators
	for _, cb := range cg.Blocks {
		nb := cl.blocks[cb]
		for _, p := range cb.Phis {
			np := cl.node(p)
			np.Block = nb
			nb.Phis = append(nb.Phis, np)
		}
		for _, x := range cb.Nodes {
			nx := cl.node(x)
			if nx.Block == nil { // params map to args and are not re-placed
				nx.Block = nb
				nb.Nodes = append(nb.Nodes, nx)
			}
		}
		nt := cl.node(cb.Term)
		nt.Block = nb
		nb.Term = nt
		nb.Preds = make([]*ir.Block, len(cb.Preds))
		for i, p := range cb.Preds {
			nb.Preds[i] = cl.blocks[p]
		}
		nb.Succs = make([]*ir.Block, len(cb.Succs))
		for i, s := range cb.Succs {
			nb.Succs[i] = cl.blocks[s]
		}
		if nt.Op == ir.OpReturn {
			returns = append(returns, nt)
		}
	}

	// head jumps into the cloned entry.
	entryGoto := g.NewNode(ir.OpGoto, bc.KindVoid)
	entryGoto.BCI = invoke.BCI
	g.SetTerm(head, entryGoto, cl.blocks[cg.Entry()])

	// Rewire returns to cont, merging return values with a phi.
	var result *ir.Node
	switch len(returns) {
	case 0:
		// The callee never returns (always throws/deopts): cont is
		// unreachable; give it a throw-free terminator and let dead
		// block removal drop it.
	default:
		var phi *ir.Node
		if callee.Ret != bc.KindVoid && len(returns) > 1 {
			phi = g.AddPhi(cont, callee.Ret)
		}
		for _, ret := range returns {
			rb := ret.Block
			gt := g.NewNode(ir.OpGoto, bc.KindVoid)
			gt.BCI = ret.BCI
			gt.Block = rb
			rb.Term = gt
			rb.Succs = []*ir.Block{cont}
			cont.Preds = append(cont.Preds, rb)
			if phi != nil {
				phi.Inputs = append(phi.Inputs, ret.Inputs[0])
			}
		}
		if callee.Ret != bc.KindVoid {
			if phi != nil {
				result = phi
			} else {
				result = returns[0].Inputs[0]
			}
		}
	}

	// Replace the invoke's value with the result and drop the invoke.
	if result != nil {
		g.ReplaceAllUsages(invoke, result)
	}
	g.RemoveNode(invoke)
	if len(returns) == 0 {
		g.RemoveDeadBlocks()
	}
	return nil
}

// cloner copies callee nodes/blocks/frame-states into the caller graph.
type cloner struct {
	g      *ir.Graph
	callee *bc.Method
	args   []*ir.Node
	outer  *ir.FrameState
	nodes  map[*ir.Node]*ir.Node
	blocks map[*ir.Block]*ir.Block
	states map[*ir.FrameState]*ir.FrameState
}

// node returns the caller-graph clone of a callee node.
func (cl *cloner) node(x *ir.Node) *ir.Node {
	if x == nil {
		return nil
	}
	if n, ok := cl.nodes[x]; ok {
		return n
	}
	if x.Op == ir.OpParam {
		a := cl.args[x.AuxInt]
		cl.nodes[x] = a
		return a
	}
	n := cl.g.NewNode(x.Op, x.Kind)
	cl.nodes[x] = n
	n.AuxInt = x.AuxInt
	n.AuxLen = x.AuxLen
	n.AuxLock = x.AuxLock
	n.Aux2 = x.Aux2
	n.Cond = x.Cond
	n.Class = x.Class
	n.Field = x.Field
	n.Method = x.Method
	n.ElemKind = x.ElemKind
	n.DeoptReason = x.DeoptReason
	n.BCI = x.BCI
	// Cloned nodes keep reporting trap identity against the method they
	// came from, not the graph they now live in.
	n.Origin = x.OriginMethod(cl.callee)
	n.Inputs = make([]*ir.Node, len(x.Inputs))
	for i, in := range x.Inputs {
		n.Inputs[i] = cl.node(in)
	}
	n.FrameState = cl.state(x.FrameState)
	return n
}

// state clones a frame state chain, attaching the caller's during-state at
// the end of the chain.
func (cl *cloner) state(fs *ir.FrameState) *ir.FrameState {
	if fs == nil {
		return nil
	}
	if s, ok := cl.states[fs]; ok {
		return s
	}
	s := &ir.FrameState{Method: fs.Method, BCI: fs.BCI}
	cl.states[fs] = s
	s.Locals = make([]*ir.Node, len(fs.Locals))
	for i, n := range fs.Locals {
		s.Locals[i] = cl.node(n)
	}
	s.Stack = make([]*ir.Node, len(fs.Stack))
	for i, n := range fs.Stack {
		s.Stack[i] = cl.node(n)
	}
	for _, vo := range fs.VirtualObjects {
		nvo := &ir.VirtualObjectState{Object: cl.node(vo.Object), LockDepth: vo.LockDepth}
		for _, v := range vo.Values {
			nvo.Values = append(nvo.Values, cl.node(v))
		}
		s.VirtualObjects = append(s.VirtualObjects, nvo)
	}
	if fs.Outer != nil {
		s.Outer = cl.state(fs.Outer)
	} else {
		s.Outer = cl.outer
	}
	return s
}
