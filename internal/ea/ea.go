// Package ea implements the control-flow-insensitive Escape Analysis
// baseline the paper compares against (§6.2): equi-escape sets in the
// style of Kotzmann and Mössenböck, as used by the HotSpot compilers. All
// nodes that may refer to the same object are merged into one set
// (union-find); a set escapes if any member is stored to a global, passed
// to a call, returned, or thrown. An allocation is scalar-replaceable only
// if its whole set never escapes anywhere in the method — the
// "all-or-nothing approach" whose weakness motivates Partial Escape
// Analysis.
//
// The actual transformation (scalar replacement, lock elision, frame-state
// virtualization) is delegated to the pea package, restricted to the
// provably non-escaping allocations; on that subset PEA's flow-sensitive
// machinery degenerates to the classic flow-insensitive optimization, so
// both configurations share one battle-tested rewriter.
package ea

import (
	"pea/internal/bc"
	"pea/internal/ir"
	"pea/internal/obs"
	"pea/internal/pea"
)

// Escape reasons recorded on equi-escape sets and reported in ea_verdict
// events.
const (
	reasonUnknownSource = "unknown-source" // merged with a param or static load
	reasonCallArgument  = "call-argument"
	reasonCallResult    = "call-result"
	reasonReturned      = "returned"
	reasonThrown        = "thrown"
	reasonStoredStatic  = "stored-to-static"
	// reasonPrintSink marks values reaching the native print sink —
	// reported separately from call arguments so escape attribution does
	// not blame calls for unrelated native sinks. (Today OpPrint only
	// accepts ints, so no ref ever carries this reason; the case keeps
	// the analysis conservative if print ever grows a ref form.)
	reasonPrintSink = "print-sink"
)

// Analyze computes the set of allocation nodes (OpNew / OpNewArray) that
// never escape the graph under equi-escape-set rules.
func Analyze(g *ir.Graph) map[*ir.Node]bool {
	nonEscaping, _ := analyze(g, nil)
	return nonEscaping
}

// AnalyzeWith is Analyze with an observability sink receiving one
// ea_verdict event per allocation site: verdict "captured" for allocations
// whose set never escapes, "escapes" with the recorded reason otherwise.
// calleeNoEscape, when non-nil, has pea.Config.CalleeNoEscape semantics:
// call arguments in positions every possible callee provably never
// observes do not escape into the call.
func AnalyzeWith(g *ir.Graph, sink *obs.Sink, calleeNoEscape func(*ir.Node) []bool) map[*ir.Node]bool {
	nonEscaping, u := analyze(g, calleeNoEscape)
	if sink.Traces() {
		g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
			if n.Op != ir.OpNew && n.Op != ir.OpNewArray {
				return
			}
			if nonEscaping[n] {
				sink.EAVerdict(g.Method, n.ID, "captured", "", n.Method, n.BCI)
			} else {
				sink.EAVerdict(g.Method, n.ID, "escapes", u.escapeReason(n), n.Method, n.BCI)
			}
		})
	}
	return nonEscaping
}

func analyze(g *ir.Graph, calleeNoEscape func(*ir.Node) []bool) (map[*ir.Node]bool, *unionFind) {
	u := newUnionFind()

	escape := func(n *ir.Node, reason string) {
		if n != nil && n.Kind == bc.KindRef {
			u.markEscaped(n, reason)
		}
	}
	unionRef := func(x, y *ir.Node) {
		if x == nil || y == nil || x.Kind != bc.KindRef || y.Kind != bc.KindRef {
			return
		}
		// The null constant refers to no object; merging through it
		// would spuriously bridge every set that ever stores null.
		if x.Op == ir.OpConstNull || y.Op == ir.OpConstNull {
			return
		}
		u.union(x, y)
	}

	g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
		// oplint:ignore — enumerates escape *sources* only; ops absent
		// here contribute no escape edges.
		switch n.Op {
		case ir.OpParam, ir.OpLoadStatic, ir.OpExceptionObject:
			// Unknown sources: anything merged with them escapes. The
			// exception object entering a handler may be any thrown
			// reference (or null, for intrinsic traps).
			escape(n, reasonUnknownSource)
		case ir.OpInvoke:
			// Arguments escape into the callee — unless the
			// inter-procedural summary proves the position unobserved
			// by every possible callee, in which case the argument's
			// set is unaffected by the call (the pea transfer then
			// keeps such objects virtual and passes null). The result
			// is an unknown object regardless.
			var safe []bool
			if calleeNoEscape != nil {
				if s := calleeNoEscape(n); len(s) == len(n.Inputs) {
					safe = s
				}
			}
			for i, in := range n.Inputs {
				if safe != nil && safe[i] {
					continue
				}
				escape(in, reasonCallArgument)
			}
			escape(n, reasonCallResult)
		case ir.OpPrint:
			// Native sink; distinct reason so attribution separates it
			// from call-argument escapes.
			for _, in := range n.Inputs {
				escape(in, reasonPrintSink)
			}
		case ir.OpMonitorEnter, ir.OpMonitorExit:
			// Locking observes the object but does not make it escape:
			// monitors on captured objects are elided by the shared
			// rewriter (the object provably has no concurrent aliases).
		case ir.OpReturn:
			for _, in := range n.Inputs {
				escape(in, reasonReturned)
			}
		case ir.OpThrow:
			for _, in := range n.Inputs {
				escape(in, reasonThrown)
			}
		case ir.OpStoreStatic:
			escape(n.Inputs[0], reasonStoredStatic)
		case ir.OpStoreField:
			// The stored value shares the fate of the object it is
			// stored into.
			unionRef(n.Inputs[0], n.Inputs[1])
		case ir.OpStoreIndexed:
			unionRef(n.Inputs[0], n.Inputs[2])
		case ir.OpLoadField:
			// A value loaded from an object may be anything stored
			// into it: same set.
			unionRef(n, n.Inputs[0])
		case ir.OpLoadIndexed:
			unionRef(n, n.Inputs[0])
		case ir.OpPhi:
			for _, in := range n.Inputs {
				unionRef(n, in)
			}
		case ir.OpDeopt:
			// Frame states do not cause escapes: the deoptimization
			// runtime rematerializes scalar-replaced objects
			// (Kotzmann's contribution, which both EA and PEA
			// configurations share here).
		}
	})

	nonEscaping := make(map[*ir.Node]bool)
	g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
		if (n.Op == ir.OpNew || n.Op == ir.OpNewArray) && !u.escaped(n) {
			nonEscaping[n] = true
		}
	})
	return nonEscaping, u
}

// Run performs flow-insensitive escape analysis and scalar replacement on
// g. It returns the transformation result (same shape as pea.Result).
// Verdict events are emitted to conf.Sink when set.
func Run(g *ir.Graph, conf pea.Config) (pea.Result, error) {
	allowed := AnalyzeWith(g, conf.Sink, conf.CalleeNoEscape)
	if len(allowed) == 0 {
		return pea.Result{}, nil
	}
	conf.AllowAlloc = func(n *ir.Node) bool { return allowed[n] }
	return pea.Run(g, conf)
}

// unionFind is a union-find over nodes with an "escaped" reason per set.
type unionFind struct {
	parent map[*ir.Node]*ir.Node
	// esc records, on set representatives, the first escape reason; a
	// missing entry means the set does not escape.
	esc map[*ir.Node]string
}

func newUnionFind() *unionFind {
	return &unionFind{parent: make(map[*ir.Node]*ir.Node), esc: make(map[*ir.Node]string)}
}

func (u *unionFind) find(n *ir.Node) *ir.Node {
	p, ok := u.parent[n]
	if !ok || p == n {
		u.parent[n] = n
		return n
	}
	r := u.find(p)
	u.parent[n] = r
	return r
}

func (u *unionFind) union(a, b *ir.Node) {
	ra, rb := u.find(a), u.find(b)
	if ra == rb {
		return
	}
	u.parent[rb] = ra
	if r, ok := u.esc[rb]; ok {
		if _, already := u.esc[ra]; !already {
			u.esc[ra] = r
		}
	}
}

func (u *unionFind) markEscaped(n *ir.Node, reason string) {
	r := u.find(n)
	if _, ok := u.esc[r]; !ok {
		u.esc[r] = reason
	}
}

func (u *unionFind) escaped(n *ir.Node) bool {
	_, ok := u.esc[u.find(n)]
	return ok
}

// escapeReason returns the recorded reason for an escaping set ("" if the
// set does not escape).
func (u *unionFind) escapeReason(n *ir.Node) string {
	return u.esc[u.find(n)]
}
