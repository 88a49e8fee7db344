// Package closure is the template-JIT execution backend: it compiles each
// scheduled ir.Graph once, at install time, into one Go func per block
// (threaded code). Every node becomes a small Go func with its operands
// pre-resolved to dense slot indices in one of two typed arrays (ints, refs —
// a node's array is fixed by its Kind) and constants folded into captures; a
// block's ops and its terminator are fused into one func(*frame) int
// returning the next block index, so steady-state dispatch is one indirect
// call per block — no map lookups, no switch on n.Op, no tagged values, and
// zero allocations per invocation (slots and the invoke argument scratch
// live in a pooled frame). A loop phi shares its back-edge input's slot where
// their live ranges allow, and a copy-free jump into a block with no ops runs
// that block's terminator itself, so a counted loop is one dispatch and no
// copy per iteration.
//
// What an operation does — its checks, its trap reason, the counters it
// bumps — is not decided here: every closure calls the guest-operation kernel
// in internal/rt (ops.go), as the oracle and the interpreter do, so the
// backends' heap effects and traps are equal by construction and the
// differential fuzzer compares what is left: the lowering.
//
// Traps and invoke errors propagate by panicking with an abort wrapper,
// recovered once per Run — the steady-state loop carries no error returns.
// Deoptimization reuses the engine's shared transfer path: the lowered code
// exposes an eval hook backed by the node→slot table recorded at compile
// time, which the deopt runtime uses to read FrameState inputs out of the
// live frame.
package closure

import (
	"fmt"
	"sync"

	"pea/internal/bc"
	"pea/internal/exec"
	"pea/internal/ir"
	"pea/internal/rt"
)

// Backend lowers scheduled graphs to threaded closure code.
type Backend struct{}

// New returns the closure backend.
func New() exec.Backend { return Backend{} }

// Name identifies the backend in cache keys and flight records.
func (Backend) Name() string { return "closure" }

// Compile lowers g once into a Code artifact. The artifact is immutable and
// safe for concurrent Run calls: per-invocation state lives in pooled
// frames.
func (Backend) Compile(g *ir.Graph) (exec.Code, error) { return compile(g) }

// op executes one lowered node against the frame.
type op func(f *frame)

// term executes a block terminator, performing the successor edge's phi
// copy, and returns the next dense block index (done = -1). A whole lowered
// block — its ops, then its terminator — has the same shape.
type term func(f *frame) int

const done = -1

// block is one lowered basic block.
type block struct {
	run term
	// steps is the node count charged against Env.MaxSteps per entry
	// (nodes + terminator, plus those of the op-less blocks whose
	// terminators run chained to this one's, mirroring the oracle's
	// per-node accounting closely enough for the budget to stay a runaway
	// guard).
	steps int64
}

// Code is a compiled graph: flat per-block closure sequences plus the frame
// layout metadata needed to start, deoptimize from, and pool executions.
type Code struct {
	g      *ir.Graph
	blocks []block
	entry  int

	nInts, nRefs int
	nArgs        int // widest invoke; sizes the frame's argument scratch
	params       []paramSlot
	consts       []constSlot
	// slot holds, by node ID, each value node's index in the array its
	// Kind selects, or noSlot. Used at compile time to resolve operands and
	// at deopt time to serve the eval hook; never touched by steady-state
	// dispatch.
	slot []int32

	pool sync.Pool
}

// noSlot marks a node that owns no slot.
const noSlot = -1

type paramSlot struct {
	arg  int
	slot int32
	ref  bool
}

type constSlot struct {
	slot int32
	v    int64
}

// frame is the per-invocation value arena. Frames are pooled per Code:
// constant slots are written once when the frame is built and never
// overwritten, so a reused frame skips constant initialization entirely (a
// null constant is a ref slot nobody writes).
type frame struct {
	ints []int64
	refs []*rt.Object
	// args is the argument vector of whichever invoke of this frame is in
	// flight. Callees copy their arguments out before running and the
	// caller is suspended for the call's duration, so one buffer per frame
	// serves every call site; a re-entrant call runs in another frame.
	args []rt.Value
	ret  rt.Value
	eng  *exec.Engine
	env  *rt.Env
	code *Code
	// pending is the in-flight exception: set by a guarded op that
	// trapped (or a covered Throw), tested by the OnException terminator,
	// read by ExceptionObject, re-raised by Unwind. Guarded ops clear it
	// before executing, so a stale value can never misroute a later guard.
	pending *rt.Trap
}

// abort carries a trap or invoke error out of the dispatch loop; Run
// recovers it once per invocation.
type abort struct{ err error }

// Graph returns the scheduled IR this code was lowered from.
func (c *Code) Graph() *ir.Graph { return c.g }

// Run executes the code. Steady state allocates nothing: the frame comes
// from the pool, values move between dense typed slots, calls pass their
// arguments in the frame's scratch, and the only allocations happen on
// program-visible paths (object allocations) or error paths (traps, deopts).
func (c *Code) Run(e *exec.Engine, args []rt.Value) (ret rt.Value, err error) {
	f := c.pool.Get().(*frame)
	env := e.Env
	f.eng, f.env = e, env
	f.pending = nil
	for _, p := range c.params {
		if p.ref {
			f.refs[p.slot] = args[p.arg].Ref
		} else {
			f.ints[p.slot] = args[p.arg].I
		}
	}
	defer func() {
		f.eng, f.env = nil, nil
		c.pool.Put(f)
		if r := recover(); r != nil {
			ab, ok := r.(abort)
			if !ok {
				panic(r)
			}
			ret, err = rt.Value{}, ab.err
		}
	}()
	bounded := env.MaxSteps > 0
	for bi := c.entry; bi != done; {
		b := &c.blocks[bi]
		if bounded {
			if serr := env.ChargeSteps(b.steps, c.g.Method); serr != nil {
				return rt.Value{}, serr
			}
		}
		bi = b.run(f)
	}
	return f.ret, nil
}

// value reads x's current runtime value out of the frame as a tagged
// rt.Value: the deopt runtime's eval hook. ok is false for nodes that own no
// slot (virtual objects, void nodes).
func (f *frame) value(x *ir.Node) (rt.Value, bool) {
	s, ok := f.code.slotOf(x)
	if !ok {
		return rt.Value{}, false
	}
	if x.Kind == bc.KindRef {
		return rt.RefValue(f.refs[s]), true
	}
	return rt.IntValue(f.ints[s]), true
}

// guarded wraps a lowered op so that a trap it raises is captured into the
// frame's pending register rather than unwinding the run; non-trap aborts
// (step-budget exhaustion, structural errors) still propagate.
func guarded(inner op) op {
	return func(f *frame) {
		f.pending = nil
		defer func() {
			if r := recover(); r != nil {
				ab, ok := r.(abort)
				if !ok {
					panic(r)
				}
				tr, ok := ab.err.(*rt.Trap)
				if !ok {
					panic(r)
				}
				f.pending = tr
			}
		}()
		inner(f)
	}
}

// cannotTrap reports whether n, the node an OnException terminator guards,
// is a division or remainder by a non-zero constant: the one guarded shape
// that provably never raises, so it needs no recover frame and its
// OnException always continues normally.
func cannotTrap(n *ir.Node) bool {
	if n.Op != ir.OpArith || (n.Aux2 != bc.OpDiv && n.Aux2 != bc.OpRem) {
		return false
	}
	d := n.Inputs[1]
	return d != nil && d.Op == ir.OpConst && d.AuxInt != 0
}

// slotOf returns x's slot, if it owns one.
func (c *Code) slotOf(x *ir.Node) (int32, bool) {
	if x.ID >= len(c.slot) || c.slot[x.ID] == noSlot {
		return 0, false
	}
	return c.slot[x.ID], true
}

// compiler carries the per-compile lowering state.
type compiler struct {
	g    *ir.Graph
	code *Code
	// blkIdx is each block's dense index, by block ID.
	blkIdx []int
	useScan
	// ops holds every block's lowered ops, in block order; terms holds each
	// block's end in ops and its terminator, lowered on demand (termOf).
	ops   []op
	terms []lowered
	// scratch is the cycle-breaking slot of each typed array, -1 until an
	// edge first needs one.
	scratchInt, scratchRef int32
	// intMoves and refMoves are edge's working buffers.
	intMoves, refMoves []move
}

// lowered is one block's terminator, as far as it has been lowered.
type lowered struct {
	t term
	// opEnd is the end of the block's ops in compiler.ops.
	opEnd int32
	// steps is what the terminator charges: 1, plus the nodes and
	// terminators of the op-less blocks whose terminators it runs.
	steps int64
	// busy marks a terminator being lowered: a jump into a busy block (a
	// self-edge, a cycle of op-less blocks) dispatches instead of chaining.
	busy bool
}

func compile(g *ir.Graph) (*Code, error) {
	if len(g.Blocks) == 0 {
		return nil, fmt.Errorf("closure: %s has no blocks", g.Method.QualifiedName())
	}
	c := &Code{g: g, slot: make([]int32, g.NumNodeIDs())}
	for i := range c.slot {
		c.slot[i] = noSlot
	}
	cc := &compiler{
		g: g, code: c,
		blkIdx:     make([]int, g.NumBlockIDs()),
		useScan:    scanUses(g),
		scratchInt: -1, scratchRef: -1,
	}

	// Pass 1: dense block numbering and slot assignment. Every phi and
	// every placed value node gets a slot in the array of its Kind, except
	// OpVirtualObject (which exists only inside frame states) and fused
	// compares; a back-edge input that shares its phi's slot takes that one.
	// Constants and parameters additionally record their initialization so
	// no per-node op is needed for them at run time.
	nNodes, maxPhis := 0, 0
	for i, b := range g.Blocks {
		cc.blkIdx[b.ID] = i
		nNodes += len(b.Nodes)
		maxPhis = max(maxPhis, len(b.Phis))
		for _, phi := range b.Phis {
			if _, err := cc.assign(phi); err != nil {
				return nil, err
			}
		}
		for _, n := range b.Nodes {
			if n.Kind == bc.KindVoid || n.Op == ir.OpVirtualObject || cc.fused(i, n) {
				continue
			}
			s, err := cc.assign(n)
			if err != nil {
				return nil, err
			}
			// oplint:ignore — only params and int constants need slot
			// pre-population; every other op is handled by lowerNode.
			switch n.Op {
			case ir.OpParam:
				c.params = append(c.params, paramSlot{arg: int(n.AuxInt), slot: s, ref: n.Kind == bc.KindRef})
			case ir.OpConst:
				if n.Kind != bc.KindInt {
					return nil, cc.kindErr(n, bc.KindInt)
				}
				c.consts = append(c.consts, constSlot{slot: s, v: n.AuxInt})
			case ir.OpConstNull:
				if n.Kind != bc.KindRef {
					return nil, cc.kindErr(n, bc.KindRef)
				}
			}
		}
	}
	entry := g.Entry()
	if len(entry.Phis) > 0 {
		return nil, fmt.Errorf("closure: %s entry block has phis", g.Method.QualifiedName())
	}
	c.entry = cc.blkIdx[entry.ID]

	if maxPhis > 0 {
		buf := make([]move, 2*maxPhis+2) // one cycle break each, without growing
		cc.intMoves, cc.refMoves = buf[:0:maxPhis+1], buf[maxPhis+1:maxPhis+1]
	}

	// Pass 2: lower every block's ops.
	cc.ops = make([]op, 0, nNodes)
	cc.terms = make([]lowered, len(g.Blocks))
	for i, b := range g.Blocks {
		if b.Term == nil {
			return nil, fmt.Errorf("closure: %s has no terminator", b)
		}
		for _, n := range b.Nodes {
			if cc.fused(i, n) {
				continue
			}
			o, err := cc.lowerNode(n)
			if err != nil {
				return nil, err
			}
			if o == nil {
				continue
			}
			// The node an OnException terminator guards has its trap
			// intercepted and recorded instead of aborting the run; the
			// terminator then routes to the dispatch chain. A guard that
			// cannot trap runs bare, and its terminator is a plain jump.
			if b.Term.Op == ir.OpOnException && b.Term.Inputs[0] == n && !cannotTrap(n) {
				o = guarded(o)
			}
			cc.ops = append(cc.ops, o)
		}
		cc.terms[i].opEnd = int32(len(cc.ops))
	}

	// Pass 3: fuse each block's ops and its terminator into one func. The
	// terminators come last because a jump may run another block's.
	c.blocks = make([]block, len(g.Blocks))
	for i, b := range g.Blocks {
		l, err := cc.termOf(i)
		if err != nil {
			return nil, err
		}
		c.blocks[i] = block{run: fuse(cc.opsOf(i), l.t), steps: int64(len(b.Nodes)) + l.steps}
	}

	c.pool.New = func() any {
		f := &frame{
			ints: make([]int64, c.nInts),
			refs: make([]*rt.Object, c.nRefs),
			args: make([]rt.Value, c.nArgs),
			code: c,
		}
		for _, cs := range c.consts {
			f.ints[cs.slot] = cs.v
		}
		return f
	}
	return c, nil
}

// termOf lowers block i's terminator, once.
func (cc *compiler) termOf(i int) (*lowered, error) {
	l := &cc.terms[i]
	if l.t == nil {
		l.busy, l.steps = true, 1
		t, err := cc.lowerTerm(cc.g.Blocks[i], cc.g.Blocks[i].Term)
		l.busy = false
		if err != nil {
			return nil, err
		}
		l.t = t
	}
	return l, nil
}

// opsOf returns block i's lowered ops.
func (cc *compiler) opsOf(i int) []op {
	start, end := int32(0), cc.terms[i].opEnd
	if i > 0 {
		start = cc.terms[i-1].opEnd
	}
	return cc.ops[start:end:end]
}

// fuse makes one func of a block's ops and its terminator: straight calls
// for up to four ops, a loop beyond.
func fuse(ops []op, t term) term {
	switch len(ops) {
	case 0:
		return t
	case 1:
		o0 := ops[0]
		return func(f *frame) int { o0(f); return t(f) }
	case 2:
		o0, o1 := ops[0], ops[1]
		return func(f *frame) int { o0(f); o1(f); return t(f) }
	case 3:
		o0, o1, o2 := ops[0], ops[1], ops[2]
		return func(f *frame) int { o0(f); o1(f); o2(f); return t(f) }
	case 4:
		o0, o1, o2, o3 := ops[0], ops[1], ops[2], ops[3]
		return func(f *frame) int { o0(f); o1(f); o2(f); o3(f); return t(f) }
	}
	return func(f *frame) int {
		for _, o := range ops {
			o(f)
		}
		return t(f)
	}
}

// isCompare reports whether n is a node an If can absorb.
func isCompare(n *ir.Node) bool {
	return n != nil && (n.Op == ir.OpCmp || n.Op == ir.OpRefEq)
}

// useScan is what lowering learns from its one walk over the graph's uses.
type useScan struct {
	// fusedIf[i] says block i's If tests the operands of its condition (a
	// compare placed in that block) directly; the compare then owns no slot
	// and no closure.
	fusedIf []bool
	// tab holds, by node ID, what the walk counts; nil until a graph has a
	// compare or a slot-sharing candidate. A compare's entry counts its
	// uses, a frame-state reference counting two. A candidate input's entry
	// is -(1 + the index in cands of its pair), a phi's that of its first
	// pair; a compare that is a candidate feeds a phi, so it is never fused
	// and needs no count.
	tab []int32
	// cands are the (phi, input) pairs that may share a slot.
	cands []shareCand
}

// shareCand is a phi p and its input x over the Goto edge from x's block
// into p's block.
type shareCand struct {
	x, p *ir.Node
	idx  int32 // the index of x's block in p's block's Preds
	next int32 // 1 + the index of p's next pair, 0 for none
	// defined says the walk has passed x; ok that no read seen so far
	// rules the pair out.
	defined, ok bool
}

// useWalk is scanUses' state: the block and the node whose reads it counts.
type useWalk struct {
	useScan
	g  *ir.Graph
	at *ir.Block
	by *ir.Node
}

// scanUses makes lowering's one walk over every node input and every
// FrameState value, and decides two things from it.
//
// An OpIf absorbs its condition when that is an OpCmp/OpRefEq placed in the
// If's block whose only use in the whole graph is the If. A frame-state
// reference counts double, so it always disqualifies: deopt must be able to
// read the value out of a slot.
//
// A phi p of block H shares the slot of its input x over a Goto edge B → H
// when all of these hold: x is computed by an op placed in B; x is read only
// in B and by p over that edge; nothing in B reads p after x is defined; no
// phi of H reads p over that edge. The slot then holds x from its definition
// to B's end and p everywhere else, the two are never both wanted, and the
// edge copies nothing for p. Reads count node inputs and frame-state values
// alike, so a deopt anywhere reads the value it names.
func scanUses(g *ir.Graph) useScan {
	w := useWalk{g: g}
	phis := 0
	for _, h := range g.Blocks {
		phis += len(h.Phis)
	}
	for _, h := range g.Blocks {
		if len(h.Phis) == 0 {
			continue
		}
		for idx, b := range h.Preds {
			if b.Term == nil || b.Term.Op != ir.OpGoto {
				continue
			}
			for _, p := range h.Phis {
				x := p.Inputs[idx]
				if x == nil || x.Block != b || x.Kind != p.Kind || !computed(x) {
					continue
				}
				if w.tab == nil {
					w.table()
					w.cands = make([]shareCand, 0, phis)
				}
				if w.tab[x.ID] < 0 {
					continue // x feeds a second phi: the walk rules the first out
				}
				w.cands = append(w.cands, shareCand{x: x, p: p, idx: int32(idx), next: -w.tab[p.ID], ok: true})
				w.tab[x.ID] = -int32(len(w.cands))
				w.tab[p.ID] = -int32(len(w.cands))
			}
		}
	}
	for _, b := range g.Blocks {
		w.at = b
		for _, n := range b.Phis {
			w.node(n)
		}
		for _, n := range b.Nodes {
			w.node(n)
			if w.tab != nil && w.tab[n.ID] < 0 {
				cd := &w.cands[-w.tab[n.ID]-1]
				cd.defined = b == cd.x.Block
			}
		}
		if b.Term != nil {
			w.node(b.Term)
		}
	}

	w.fusedIf = make([]bool, len(g.Blocks))
	for i, b := range g.Blocks {
		if t := b.Term; t != nil && t.Op == ir.OpIf && len(t.Inputs) == 1 {
			c := t.Inputs[0]
			w.fusedIf[i] = isCompare(c) && c.Block == b && w.tab[c.ID] == 1
		}
	}
	return w.useScan
}

// table makes the walk's table at its first compare or candidate.
func (w *useWalk) table() {
	if w.tab == nil {
		w.tab = make([]int32, w.g.NumNodeIDs())
	}
}

// node counts n's reads: its inputs, then its frame state's values.
func (w *useWalk) node(n *ir.Node) {
	w.by = n
	for k, in := range n.Inputs {
		if isCompare(in) || (w.tab != nil && w.tab[in.ID] < 0) {
			w.read(in, k)
		}
	}
	if n.FrameState != nil {
		n.FrameState.ForEachValue(func(v *ir.Node) {
			if isCompare(v) || (w.tab != nil && w.tab[v.ID] < 0) {
				w.read(v, -1)
			}
		})
	}
}

// read counts one read of v, a compare or a candidate, by w.by: as its
// input k, or k = -1 for a frame-state value.
func (w *useWalk) read(v *ir.Node, k int) {
	w.table()
	c := -w.tab[v.ID]
	if c <= 0 {
		if k < 0 {
			w.tab[v.ID] += 2
		} else {
			w.tab[v.ID]++
		}
		return
	}
	byPhi := w.by.Op == ir.OpPhi
	if v.Op != ir.OpPhi {
		// v is a candidate input: only its own block and p over the edge
		// may read it.
		cd := &w.cands[c-1]
		if (byPhi && (w.by != cd.p || k != int(cd.idx))) || (!byPhi && w.at != v.Block) {
			cd.ok = false
		}
		return
	}
	for ; c != 0; c = w.cands[c-1].next {
		cd := &w.cands[c-1]
		if (byPhi && w.at == v.Block && k == int(cd.idx)) || (!byPhi && w.at == cd.x.Block && cd.defined) {
			cd.ok = false
		}
	}
}

// computed reports whether n is a value a lowered op writes where it is
// placed: not a phi, nor a parameter or constant (whose slots are filled
// when a run starts or a frame is built), nor a virtual object.
func computed(n *ir.Node) bool {
	// oplint:ignore — a yes/no over the four ops whose slots no placed op
	// writes.
	switch n.Op {
	case ir.OpPhi, ir.OpParam, ir.OpConst, ir.OpConstNull, ir.OpVirtualObject:
		return false
	}
	return n.Kind == bc.KindInt || n.Kind == bc.KindRef
}

// mate returns the phi whose slot n shares, or nil.
func (u *useScan) mate(n *ir.Node) *ir.Node {
	if u.tab == nil || n.Op == ir.OpPhi {
		return nil
	}
	if c := -u.tab[n.ID]; c > 0 && u.cands[c-1].ok && u.cands[c-1].defined {
		return u.cands[c-1].p
	}
	return nil
}

// fused reports whether n, a node of block i, is the compare that block's If
// absorbed.
func (cc *compiler) fused(i int, n *ir.Node) bool {
	return cc.fusedIf[i] && n == cc.g.Blocks[i].Term.Inputs[0]
}

// assign gives n a slot in the array its Kind selects: the one it shares
// with its phi, if it has one yet, or else the next.
func (cc *compiler) assign(n *ir.Node) (int32, error) {
	if s := cc.code.slot[n.ID]; s != noSlot {
		return s, nil // a phi whose back-edge input came first
	}
	p := cc.mate(n)
	if p != nil && cc.code.slot[p.ID] != noSlot {
		cc.code.slot[n.ID] = cc.code.slot[p.ID]
		return cc.code.slot[n.ID], nil
	}
	var s int32
	switch n.Kind {
	case bc.KindInt:
		s = cc.newInt()
	case bc.KindRef:
		s = cc.newRef()
	default:
		return 0, fmt.Errorf("closure: %s: %s has no value kind", cc.g.Method.QualifiedName(), n)
	}
	cc.code.slot[n.ID] = s
	if p != nil {
		cc.code.slot[p.ID] = s
	}
	return s, nil
}

func (cc *compiler) newInt() int32 {
	cc.code.nInts++
	return int32(cc.code.nInts - 1)
}

func (cc *compiler) newRef() int32 {
	cc.code.nRefs++
	return int32(cc.code.nRefs - 1)
}

func (cc *compiler) kindErr(x *ir.Node, want bc.Kind) error {
	return fmt.Errorf("closure: %s: %s is %s, want %s",
		cc.g.Method.QualifiedName(), x, x.Kind, want)
}

// slotOf resolves operand x, which must be of kind k, to its index in k's
// array. A kind mismatch or a missing slot is a verifier or scheduling bug
// surfaced as a compile error — never a read of the wrong array at run time.
func (cc *compiler) slotOf(x *ir.Node, k bc.Kind) (int32, error) {
	if x == nil {
		return 0, fmt.Errorf("closure: %s: nil operand", cc.g.Method.QualifiedName())
	}
	if x.Kind != k {
		return 0, cc.kindErr(x, k)
	}
	s, ok := cc.code.slotOf(x)
	if !ok {
		return 0, fmt.Errorf("closure: %s: operand %s has no slot (unscheduled?)",
			cc.g.Method.QualifiedName(), x)
	}
	return s, nil
}

// intIn and refIn resolve input i of n as an operand of that kind; intDst
// and refDst resolve n's own slot.
func (cc *compiler) intIn(n *ir.Node, i int) (int32, error) {
	return cc.slotOf(n.Inputs[i], bc.KindInt)
}
func (cc *compiler) refIn(n *ir.Node, i int) (int32, error) {
	return cc.slotOf(n.Inputs[i], bc.KindRef)
}
func (cc *compiler) intDst(n *ir.Node) (int32, error) { return cc.slotOf(n, bc.KindInt) }
func (cc *compiler) refDst(n *ir.Node) (int32, error) { return cc.slotOf(n, bc.KindRef) }

// operand is a frame value read where either kind is legal (invoke
// arguments, materialized fields): the slot plus which array it indexes.
type operand struct {
	slot int32
	ref  bool
}

// operandOf resolves x under its own kind.
func (cc *compiler) operandOf(x *ir.Node) (operand, error) {
	if x == nil {
		return operand{}, fmt.Errorf("closure: %s: nil operand", cc.g.Method.QualifiedName())
	}
	s, err := cc.slotOf(x, x.Kind)
	return operand{slot: s, ref: x.Kind == bc.KindRef}, err
}

// load builds the tagged value of o for the heap or a callee.
func (f *frame) load(o operand) rt.Value {
	if o.ref {
		return rt.RefValue(f.refs[o.slot])
	}
	return rt.IntValue(f.ints[o.slot])
}
