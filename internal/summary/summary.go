// Package summary computes inter-procedural escape summaries: a
// whole-program, bottom-up static analysis over the call graph that
// records, per method, how each parameter can escape. The paper's Partial
// Escape Analysis is intra-procedural — after inlining, every surviving
// OpInvoke is a black hole that forces its arguments to exist — and this
// package is the repo's answer to that gap (ROADMAP item 4), in the shape
// SkipFlow (arXiv 2501.19150) and HotSpot's BCEscapeAnalyzer use: method
// escape summaries plus predicate edges over primitive parameters.
//
// The lattice is NoEscape < ArgEscape < GlobalEscape:
//
//   - NoEscape means the callee provably never *observes* the parameter:
//     its only uses are phi/local shuffles, being forwarded to another
//     callee's NoEscape position, or being dropped. This is deliberately
//     stronger than Kotzmann's NoEscape ("not reachable after return") —
//     callees here really execute (they are not always inlined away), so
//     the caller may keep a virtual object virtual across the call and
//     pass null in its place only if no execution path can tell the
//     difference. Field loads, stores, identity comparisons, monitors,
//     returns, and dispatch all count as observation.
//   - ArgEscape means the parameter is observed locally (loaded from,
//     locked, compared, returned) but never becomes globally reachable.
//     Callers must materialize, but attribution can still distinguish
//     these from global escapes.
//   - GlobalEscape means the parameter may be stored to a static, thrown,
//     printed, or passed into unknown code.
//
// Summaries are computed bottom-up over the SCC condensation of the call
// graph, so straight-line call chains propagate NoEscape transitively.
// Recursion-cycle members, unknown dispatch, and methods whose IR cannot
// be built get conservative all-GlobalEscape summaries. Virtual call
// edges join over every class-hierarchy-possible target.
//
// A SkipFlow-lite predicate pass refines summaries whose escaping uses
// are all guarded by an entry-block test of a primitive parameter against
// a constant: at call sites passing a constant that kills the escaping
// arm, the effective level drops to the unguarded join. This is the
// "never-taken escape branch" pruning of the SkipFlow paper, restricted
// to the single-guard shape that needs no value-range machinery.
package summary

import (
	"fmt"
	"sort"
	"strings"

	"pea/internal/bc"
	"pea/internal/build"
	"pea/internal/ir"
	"pea/internal/obs"
)

// Lattice is a parameter escape level. The zero value is NoEscape; join
// is max.
type Lattice uint8

const (
	// NoEscape: the callee never observes the parameter on any path.
	NoEscape Lattice = iota
	// ArgEscape: observed locally (loads, locks, compares, returns) but
	// never globally reachable.
	ArgEscape
	// GlobalEscape: may become globally reachable or reach unknown code.
	GlobalEscape
)

// String returns the short report spelling of the level.
func (l Lattice) String() string {
	switch l {
	case NoEscape:
		return "no"
	case ArgEscape:
		return "arg"
	case GlobalEscape:
		return "global"
	default:
		return fmt.Sprintf("Lattice(%d)", uint8(l))
	}
}

func join(a, b Lattice) Lattice {
	if b > a {
		return b
	}
	return a
}

// Pred is a SkipFlow-lite predicate edge: the escaping uses of ref
// parameter Param all sit on one arm of the method's entry-block branch
// on primitive parameter IntParam compared against Const. At a call site
// where the IntParam argument is a compile-time constant that makes the
// escaping arm dead, Param's effective level drops to Relaxed.
type Pred struct {
	// Param is the ref parameter position this predicate refines.
	Param int
	// IntParam is the primitive parameter position the entry guard tests.
	IntParam int
	// Cond and Const describe the guard: cond(IntParam, Const) when
	// ParamOnLeft, cond(Const, IntParam) otherwise.
	Cond        bc.Cond
	Const       int64
	ParamOnLeft bool
	// WhenTrue: the escaping uses are dominated by the guard's true arm.
	WhenTrue bool
	// Relaxed is Param's level when the escaping arm is statically dead.
	Relaxed Lattice
}

// Summary is one method's escape summary.
type Summary struct {
	// ParamEscape has one level per argument position (the receiver is
	// position 0 of instance methods, matching ir.OpInvoke input order).
	// Primitive parameters are recorded as ArgEscape (always observed,
	// never substitutable).
	ParamEscape []Lattice
	// ReturnsFresh: every return value is an allocation made inside the
	// method (directly or via callees that return fresh). Reported in
	// Table only: no compile reads it, and it is never a license to skip
	// escapes.
	ReturnsFresh bool
	// Preds are the predicate refinements (see Pred).
	Preds []Pred
	// Conservative marks recursion-cycle members and methods whose IR
	// could not be built: every level is GlobalEscape by construction.
	Conservative bool
}

// Stats describes one computed set.
type Stats struct {
	Methods      int // methods summarized
	Cycles       int // methods given conservative summaries (recursion)
	BuildFailed  int // methods whose IR build failed (conservative)
	NoEscape     int // ref parameters proven NoEscape
	ArgEscape    int // ref parameters at ArgEscape
	GlobalEscape int // ref parameters at GlobalEscape
	Preds        int // predicate refinements recorded
}

// Options configures Compute.
type Options struct {
	// Sink, when non-nil, receives one summary event describing the
	// computed set.
	Sink *obs.Sink
	// BuildGraph overrides the per-method IR builder (tests). Defaults
	// to build.Build.
	BuildGraph func(m *bc.Method) (*ir.Graph, error)
}

// Set holds the summaries of one program, indexed by dense method ID.
// Sets are immutable after Compute and safe for concurrent
// readers; they may be shared across independently linked programs with
// equal content fingerprints (dense IDs are a function of content).
type Set struct {
	prog  *bc.Program
	sums  []*Summary
	stats Stats
}

// Compute analyzes p and returns its summary set. It never fails:
// anything unanalyzable is summarized conservatively.
func Compute(p *bc.Program, opts Options) *Set {
	bg := opts.BuildGraph
	if bg == nil {
		bg = build.Build
	}
	s := &Set{prog: p, sums: make([]*Summary, len(p.Methods))}

	callees := make([][]*bc.Method, len(p.Methods))
	for _, m := range p.Methods {
		callees[m.ID] = calleesOf(p, m)
	}
	for _, scc := range condense(p, callees) {
		cyclic := len(scc) > 1 || selfEdge(scc[0], callees)
		for _, m := range scc {
			if cyclic {
				s.sums[m.ID] = conservative(m)
				s.stats.Cycles++
				continue
			}
			sum, buildOK := s.analyze(m, bg)
			if !buildOK {
				s.stats.BuildFailed++
			}
			s.sums[m.ID] = sum
		}
	}
	s.stats.Methods = len(p.Methods)
	for _, m := range p.Methods {
		sum := s.sums[m.ID]
		s.stats.Preds += len(sum.Preds)
		for i, l := range sum.ParamEscape {
			if argKind(m, i) != bc.KindRef {
				continue
			}
			switch l {
			case NoEscape:
				s.stats.NoEscape++
			case ArgEscape:
				s.stats.ArgEscape++
			case GlobalEscape:
				s.stats.GlobalEscape++
			}
		}
	}
	if opts.Sink != nil {
		opts.Sink.SummaryReady(s.stats.Methods, s.stats.NoEscape, s.stats.Preds)
	}
	return s
}

// Of returns m's summary, or nil for a method from a different program.
func (s *Set) Of(m *bc.Method) *Summary {
	if s == nil || m == nil || m.ID < 0 || m.ID >= len(s.sums) {
		return nil
	}
	return s.sums[m.ID]
}

// Stats returns the set's aggregate statistics.
func (s *Set) Stats() Stats { return s.stats }

// conservative is the all-GlobalEscape summary.
func conservative(m *bc.Method) *Summary {
	sum := &Summary{ParamEscape: make([]Lattice, m.NumArgs()), Conservative: true}
	for i := range sum.ParamEscape {
		sum.ParamEscape[i] = GlobalEscape
	}
	return sum
}

// argKind returns the kind of argument position i (receiver = 0 for
// instance methods).
func argKind(m *bc.Method, i int) bc.Kind {
	if !m.Static {
		if i == 0 {
			return bc.KindRef
		}
		i--
	}
	if i < 0 || i >= len(m.Params) {
		return bc.KindVoid
	}
	return m.Params[i]
}

// calleesOf returns every method m may invoke: exact targets of static
// and direct calls, and all class-hierarchy-possible implementations of
// virtual calls. A nil entry marks an unresolvable site (treated as an
// unknown-code edge by the analysis).
func calleesOf(p *bc.Program, m *bc.Method) []*bc.Method {
	var out []*bc.Method
	seen := make(map[*bc.Method]bool)
	add := func(t *bc.Method) {
		if t != nil && !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	for i := range m.Code {
		in := &m.Code[i]
		if !in.Op.IsInvoke() {
			continue
		}
		if in.Op == bc.OpInvokeVirtual {
			for _, t := range p.VirtualTargets(in.Method) {
				add(t)
			}
			continue
		}
		add(in.Method)
	}
	return out
}

// selfEdge reports whether m calls itself.
func selfEdge(m *bc.Method, callees [][]*bc.Method) bool {
	for _, t := range callees[m.ID] {
		if t == m {
			return true
		}
	}
	return false
}

// condense runs Tarjan's SCC algorithm over the call graph and returns
// the components in reverse topological order (callees before callers),
// which is exactly bottom-up summary order: when a component is emitted,
// every component it calls into has already been emitted.
func condense(p *bc.Program, callees [][]*bc.Method) [][]*bc.Method {
	n := len(p.Methods)
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []*bc.Method
	var sccs [][]*bc.Method
	next := 0

	// Iterative Tarjan: generated programs can have deep call chains.
	type frame struct {
		m  *bc.Method
		ci int
	}
	for _, root := range p.Methods {
		if index[root.ID] >= 0 {
			continue
		}
		work := []frame{{m: root}}
		index[root.ID], low[root.ID] = next, next
		next++
		stack = append(stack, root)
		onStack[root.ID] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			if f.ci < len(callees[f.m.ID]) {
				t := callees[f.m.ID][f.ci]
				f.ci++
				if index[t.ID] < 0 {
					index[t.ID], low[t.ID] = next, next
					next++
					stack = append(stack, t)
					onStack[t.ID] = true
					work = append(work, frame{m: t})
				} else if onStack[t.ID] && index[t.ID] < low[f.m.ID] {
					low[f.m.ID] = index[t.ID]
				}
				continue
			}
			m := f.m
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].m
				if low[m.ID] < low[parent.ID] {
					low[parent.ID] = low[m.ID]
				}
			}
			if low[m.ID] == index[m.ID] {
				var scc []*bc.Method
				for {
					top := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[top.ID] = false
					scc = append(scc, top)
					if top == m {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}

// contrib is one escape contribution of a parameter: a level raised at a
// specific block (the observing operation's block), used both for the
// final join and for the predicate pass.
type contrib struct {
	lvl Lattice
	blk *ir.Block
}

// analyze computes one method's summary from its freshly built IR (no
// optimization passes run first: the unoptimized SSA graph is the
// bytecode's conservative truth — nothing has been folded away that the
// interpreter would still execute). buildOK is false when the IR build
// failed and the summary is conservative.
func (s *Set) analyze(m *bc.Method, bg func(*bc.Method) (*ir.Graph, error)) (*Summary, bool) {
	g, err := bg(m)
	if err != nil {
		return conservative(m), false
	}

	uses := make(map[*ir.Node][]*ir.Node)
	record := func(u *ir.Node) {
		for _, in := range u.Inputs {
			if in != nil {
				uses[in] = append(uses[in], u)
			}
		}
	}
	params := make([]*ir.Node, m.NumArgs())
	g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
		record(n)
		if n.Op == ir.OpParam && n.AuxInt >= 0 && int(n.AuxInt) < len(params) {
			params[n.AuxInt] = n
		}
	})

	sum := &Summary{ParamEscape: make([]Lattice, m.NumArgs())}
	var contribsPer [][]contrib
	for i := range sum.ParamEscape {
		if argKind(m, i) != bc.KindRef {
			// Primitive parameters are always observed; they are never
			// substitution candidates and carry no ref-escape meaning.
			sum.ParamEscape[i] = ArgEscape
			contribsPer = append(contribsPer, nil)
			continue
		}
		var cs []contrib
		if !m.Static && i == 0 {
			// The receiver is observed by dispatch and the implicit
			// null check before any instance method runs.
			cs = append(cs, contrib{ArgEscape, g.Entry()})
		}
		if p := params[i]; p != nil {
			cs = append(cs, s.paramContribs(p, uses)...)
		}
		lvl := NoEscape
		for _, c := range cs {
			lvl = join(lvl, c.lvl)
		}
		sum.ParamEscape[i] = lvl
		contribsPer = append(contribsPer, cs)
	}

	s.returns(g, sum)
	s.predicates(m, g, contribsPer, sum)
	return sum, true
}

// paramContribs walks the use chains of one ref parameter and returns
// every escape contribution. Phis are transparent aliases: a use of a phi
// that may carry the parameter is a use of the parameter.
func (s *Set) paramContribs(p *ir.Node, uses map[*ir.Node][]*ir.Node) []contrib {
	var out []contrib
	seen := map[*ir.Node]bool{p: true}
	var walk func(v *ir.Node)
	walk = func(v *ir.Node) {
		for _, u := range uses[v] {
			switch u.Op {
			case ir.OpPhi:
				if !seen[u] {
					seen[u] = true
					walk(u)
				}

			case ir.OpInvoke:
				for i, in := range u.Inputs {
					if in != v {
						continue
					}
					out = append(out, contrib{s.calleeParamLevel(u, i), u.Block})
				}

			case ir.OpReturn:
				// Returned to the caller: observed there, but not
				// globally reachable by this method's doing.
				out = append(out, contrib{ArgEscape, u.Block})

			case ir.OpThrow, ir.OpStoreStatic, ir.OpPrint:
				// Thrown, stored to a global, or handed to a native
				// sink: globally reachable / unknown code.
				out = append(out, contrib{GlobalEscape, u.Block})

			case ir.OpStoreField:
				if u.Inputs[1] == v {
					// Stored into another object: conservatively
					// global (the target's reachability is unknown).
					out = append(out, contrib{GlobalEscape, u.Block})
				}
				if u.Inputs[0] == v {
					out = append(out, contrib{ArgEscape, u.Block})
				}

			case ir.OpStoreIndexed:
				if u.Inputs[2] == v {
					out = append(out, contrib{GlobalEscape, u.Block})
				}
				if u.Inputs[0] == v {
					out = append(out, contrib{ArgEscape, u.Block})
				}

			case ir.OpLoadField, ir.OpLoadIndexed, ir.OpArrayLength,
				ir.OpMonitorEnter, ir.OpMonitorExit,
				ir.OpRefEq, ir.OpInstanceOf:
				// The object is observed (dereferenced, locked, or its
				// identity/type inspected) but stays local.
				out = append(out, contrib{ArgEscape, u.Block})

			case ir.OpArith, ir.OpNeg, ir.OpCmp, ir.OpIf, ir.OpNewArray:
				// Integer-typed consumers; a ref input would be
				// ill-typed IR. Observed at worst.
				out = append(out, contrib{ArgEscape, u.Block})

			case ir.OpParam, ir.OpConst, ir.OpConstNull, ir.OpLoadStatic,
				ir.OpNew, ir.OpRand, ir.OpGoto:
				// No inputs: cannot appear as users. Conservative if IR
				// shape ever changes.
				out = append(out, contrib{GlobalEscape, u.Block})

			case ir.OpOnException, ir.OpExceptionObject, ir.OpUnwind:
				// Exception plumbing: OnException's sole input is the
				// guarded trapping node (a control dependence, not a
				// value flow) and the other two take no inputs, so a
				// ref parameter can never reach here. Conservative if
				// the IR shape ever changes.
				out = append(out, contrib{GlobalEscape, u.Block})

			case ir.OpVirtualObject, ir.OpMaterialize, ir.OpDeopt, ir.OpInvalid:
				// PEA-introduced nodes never occur in freshly built
				// graphs; treat any appearance as unknown code.
				out = append(out, contrib{GlobalEscape, u.Block})
			}
		}
	}
	walk(p)
	return out
}

// calleeParamLevel joins argument position i's level over every possible
// target of call, applying the targets' predicate refinements when the
// call passes constants. Unknown dispatch is GlobalEscape.
func (s *Set) calleeParamLevel(call *ir.Node, i int) Lattice {
	targets, ok := s.callTargets(call)
	if !ok {
		return GlobalEscape
	}
	lvl := NoEscape
	for _, t := range targets {
		sum := s.Of(t)
		if sum == nil || len(sum.ParamEscape) != len(call.Inputs) {
			return GlobalEscape
		}
		lvl = join(lvl, effectiveLevel(sum, i, call))
	}
	return lvl
}

// callTargets resolves an ir.OpInvoke to its possible implementations.
// ok is false when the site is unresolvable (treat as unknown code).
func (s *Set) callTargets(call *ir.Node) ([]*bc.Method, bool) {
	decl := call.Method
	if decl == nil {
		return nil, false
	}
	// oplint:ignore — Aux2 of an OpInvoke is one of the three invoke
	// kinds by construction; anything else is unresolvable.
	switch call.Aux2 {
	case bc.OpInvokeStatic, bc.OpInvokeDirect:
		return []*bc.Method{decl}, true
	case bc.OpInvokeVirtual:
		if recv := call.Inputs[0]; recv != nil && recv.Op == ir.OpNew && recv.Class != nil &&
			decl.VSlot < len(recv.Class.VTable) {
			return []*bc.Method{recv.Class.VTable[decl.VSlot]}, true
		}
		ts := s.prog.VirtualTargets(decl)
		return ts, len(ts) > 0
	}
	return nil, false
}

// effectiveLevel is sum.ParamEscape[i] refined by any predicate whose
// guarded (escaping) arm is statically dead at this call site because the
// tested primitive argument is a compile-time constant.
func effectiveLevel(sum *Summary, i int, call *ir.Node) Lattice {
	lvl := sum.ParamEscape[i]
	for _, p := range sum.Preds {
		if p.Param != i || p.IntParam >= len(call.Inputs) {
			continue
		}
		arg := call.Inputs[p.IntParam]
		if arg == nil || !arg.IsConst() {
			continue
		}
		var taken bool
		if p.ParamOnLeft {
			taken = evalCond(p.Cond, arg.AuxInt, p.Const)
		} else {
			taken = evalCond(p.Cond, p.Const, arg.AuxInt)
		}
		if taken != p.WhenTrue && p.Relaxed < lvl {
			lvl = p.Relaxed
		}
	}
	return lvl
}

// evalCond evaluates an integer comparison.
func evalCond(c bc.Cond, a, b int64) bool {
	switch c {
	case bc.CondEQ:
		return a == b
	case bc.CondNE:
		return a != b
	case bc.CondLT:
		return a < b
	case bc.CondLE:
		return a <= b
	case bc.CondGT:
		return a > b
	case bc.CondGE:
		return a >= b
	default:
		return true // unknown condition: never prove an arm dead
	}
}

// returns computes ReturnsFresh from the graph's return terminators.
func (s *Set) returns(g *ir.Graph, sum *Summary) {
	if g.Method == nil || g.Method.Ret != bc.KindRef {
		return
	}
	fresh := true
	any := false
	for _, b := range g.Blocks {
		t := b.Term
		if t == nil || t.Op != ir.OpReturn || len(t.Inputs) == 0 {
			continue
		}
		any = true
		if !s.isFresh(t.Inputs[0], make(map[*ir.Node]bool)) {
			fresh = false
		}
	}
	sum.ReturnsFresh = any && fresh
}

// isFresh reports whether v is always an object allocated in this method
// (directly, via phis of fresh values, or via callees that return fresh).
func (s *Set) isFresh(v *ir.Node, seen map[*ir.Node]bool) bool {
	if v == nil || seen[v] {
		return v != nil // a phi cycle of allocations stays fresh
	}
	seen[v] = true
	// oplint:ignore — predicate over the few value-producing ops that
	// yield provably fresh objects; everything else answers false.
	switch v.Op {
	case ir.OpNew, ir.OpNewArray:
		return true
	case ir.OpPhi:
		for _, in := range v.Inputs {
			if !s.isFresh(in, seen) {
				return false
			}
		}
		return len(v.Inputs) > 0
	case ir.OpInvoke:
		targets, ok := s.callTargets(v)
		if !ok {
			return false
		}
		for _, t := range targets {
			sum := s.Of(t)
			if sum == nil || !sum.ReturnsFresh {
				return false
			}
		}
		return len(targets) > 0
	}
	return false
}

// predicates runs the SkipFlow-lite refinement: when the method's entry
// block ends in a branch on (primitive parameter vs constant) and every
// contribution that raises a ref parameter above some level sits in
// blocks dominated by one arm, record a Pred relaxing the parameter to
// the other arm's join.
func (s *Set) predicates(m *bc.Method, g *ir.Graph, contribsPer [][]contrib, sum *Summary) {
	entry := g.Entry()
	t := entry.Term
	if t == nil || t.Op != ir.OpIf || len(entry.Succs) != 2 || entry.Succs[0] == entry.Succs[1] {
		return
	}
	cond := t.Inputs[0]
	if cond == nil || cond.Op != ir.OpCmp {
		return
	}
	x, y := cond.Inputs[0], cond.Inputs[1]
	var intParamNode, constNode *ir.Node
	paramOnLeft := false
	switch {
	case x.Op == ir.OpParam && x.Kind == bc.KindInt && y.IsConst():
		intParamNode, constNode, paramOnLeft = x, y, true
	case y.Op == ir.OpParam && y.Kind == bc.KindInt && x.IsConst():
		intParamNode, constNode, paramOnLeft = y, x, false
	default:
		return
	}
	intParam := int(intParamNode.AuxInt)
	if intParam < 0 || intParam >= len(sum.ParamEscape) || argKind(m, intParam) != bc.KindInt {
		return
	}

	dom := ir.NewDomTree(g)
	for pi, cs := range contribsPer {
		full := sum.ParamEscape[pi]
		if argKind(m, pi) != bc.KindRef || full == NoEscape || len(cs) == 0 {
			continue
		}
		for arm := 0; arm < 2; arm++ {
			armBlk := entry.Succs[arm]
			relaxed := NoEscape
			for _, c := range cs {
				if c.blk != nil && dom.Dominates(armBlk, c.blk) {
					continue
				}
				relaxed = join(relaxed, c.lvl)
			}
			if relaxed < full {
				sum.Preds = append(sum.Preds, Pred{
					Param:       pi,
					IntParam:    intParam,
					Cond:        cond.Cond,
					Const:       constNode.AuxInt,
					ParamOnLeft: paramOnLeft,
					WhenTrue:    arm == 0,
					Relaxed:     relaxed,
				})
				break // one predicate per parameter
			}
		}
	}
}

// ArgSafe reports, for an ir.OpInvoke node, which argument positions every
// possible callee provably never observes: safe[i] licenses the caller to
// keep a virtual object virtual across the call and pass null in the
// argument slot. nil means no information (unknown dispatch, foreign
// method, arity mismatch) — callers fall back to conservative escapes.
// The signature matches pea.Config.CalleeNoEscape.
func (s *Set) ArgSafe(call *ir.Node) []bool {
	if s == nil || call == nil || call.Op != ir.OpInvoke {
		return nil
	}
	targets, ok := s.callTargets(call)
	if !ok || len(targets) == 0 {
		return nil
	}
	safe := make([]bool, len(call.Inputs))
	for i := range safe {
		lvl := NoEscape
		for _, t := range targets {
			sum := s.Of(t)
			if sum == nil || len(sum.ParamEscape) != len(call.Inputs) {
				return nil
			}
			lvl = join(lvl, effectiveLevel(sum, i, call))
		}
		safe[i] = lvl == NoEscape
	}
	return safe
}

// Table renders the set as a fixed-width report (peavm -summaries-report).
func (s *Set) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %-20s %5s  %s\n", "METHOD", "PARAMS", "FRESH", "PREDS")
	names := make([]string, 0, len(s.prog.Methods))
	byName := make(map[string]*bc.Method, len(s.prog.Methods))
	for _, m := range s.prog.Methods {
		n := m.QualifiedName()
		names = append(names, n)
		byName[n] = m
	}
	sort.Strings(names)
	for _, n := range names {
		m := byName[n]
		sum := s.sums[m.ID]
		levels := make([]string, len(sum.ParamEscape))
		for i, l := range sum.ParamEscape {
			levels[i] = l.String()
		}
		preds := make([]string, 0, len(sum.Preds))
		for _, p := range sum.Preds {
			arm := "F"
			if p.WhenTrue {
				arm = "T"
			}
			preds = append(preds, fmt.Sprintf("p%d@(p%d%s%d:%s)->%s",
				p.Param, p.IntParam, p.Cond, p.Const, arm, p.Relaxed))
		}
		fresh := ""
		if sum.ReturnsFresh {
			fresh = "yes"
		}
		if sum.Conservative {
			fresh = "rec"
		}
		fmt.Fprintf(&b, "%-32s %-20s %5s  %s\n",
			n, strings.Join(levels, ","), fresh, strings.Join(preds, " "))
	}
	st := s.stats
	fmt.Fprintf(&b, "ref params: %d no-escape, %d arg-escape, %d global; %d preds; %d conservative\n",
		st.NoEscape, st.ArgEscape, st.GlobalEscape, st.Preds, st.Cycles+st.BuildFailed)
	return b.String()
}
