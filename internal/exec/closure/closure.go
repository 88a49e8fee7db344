// Package closure is the template-JIT execution backend: it compiles each
// scheduled ir.Graph once, at install time, into flat per-block closure
// sequences (threaded code). Every node becomes a small Go func with its
// operands pre-resolved to dense slot indices in one of two typed arrays
// (ints, refs — a node's array is fixed by its Kind) and constants folded
// into captures; block successors are pre-linked, so steady-state dispatch
// is a tight loop over []func(*frame) plus one terminator func per block
// returning the next block index — no map lookups, no switch on n.Op, no
// tagged values, and zero allocations per invocation (slots and the invoke
// argument scratch live in a pooled frame).
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
// copy, and returns the next dense block index (done = -1).
type term func(f *frame) int

const done = -1

// block is one lowered basic block.
type block struct {
	ops  []op
	term term
	// steps is the node count charged against Env.MaxSteps per entry
	// (nodes + terminator, mirroring the oracle's per-node accounting
	// closely enough for the budget to stay a runaway guard).
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
	bi := c.entry
	for {
		b := &c.blocks[bi]
		if bounded {
			if serr := env.ChargeSteps(b.steps, c.g.Method); serr != nil {
				return rt.Value{}, serr
			}
		}
		for _, o := range b.ops {
			o(f)
		}
		if bi = b.term(f); bi < 0 {
			return f.ret, nil
		}
	}
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
	// fusedIf[i] says block i's If tests the operands of its condition (a
	// compare placed in that block) directly; the compare then owns no slot
	// and no closure.
	fusedIf []bool
	// scratch is the cycle-breaking slot of each typed array, -1 until an
	// edge first needs one.
	scratchInt, scratchRef int32
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
		fusedIf:    fusedIfs(g),
		scratchInt: -1, scratchRef: -1,
	}

	// Pass 1: dense block numbering and slot assignment. Every phi and
	// every placed value node gets a slot in the array of its Kind, except
	// OpVirtualObject (which exists only inside frame states) and fused
	// compares; constants and parameters additionally record their
	// initialization so no per-node op is needed for them at run time.
	for i, b := range g.Blocks {
		cc.blkIdx[b.ID] = i
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

	// Pass 2: lower every block to its closure sequence and pre-linked
	// terminator.
	c.blocks = make([]block, len(g.Blocks))
	for i, b := range g.Blocks {
		if b.Term == nil {
			return nil, fmt.Errorf("closure: %s has no terminator", b)
		}
		ops := make([]op, 0, len(b.Nodes))
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
			ops = append(ops, o)
		}
		t, err := cc.lowerTerm(b, b.Term)
		if err != nil {
			return nil, err
		}
		c.blocks[i] = block{ops: ops, term: t, steps: int64(len(b.Nodes)) + 1}
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

// isCompare reports whether n is a node an If can absorb.
func isCompare(n *ir.Node) bool {
	return n != nil && (n.Op == ir.OpCmp || n.Op == ir.OpRefEq)
}

// fusedIfs decides, per block, whether its OpIf absorbs its condition: an
// OpCmp/OpRefEq placed in the same block whose only use in the whole graph is
// that If. Compare uses are counted in one walk over inputs and frame
// states; a frame-state reference counts double, so it always disqualifies
// (deopt must be able to read the value out of a slot).
func fusedIfs(g *ir.Graph) []bool {
	var uses []int32 // by node ID, made at the first compare
	use := func(n *ir.Node, by int32) {
		if isCompare(n) {
			if uses == nil {
				uses = make([]int32, g.NumNodeIDs())
			}
			uses[n.ID] += by
		}
	}
	inFrameState := func(n *ir.Node) { use(n, 2) }
	g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
		for _, in := range n.Inputs {
			use(in, 1)
		}
		if n.FrameState != nil {
			n.FrameState.ForEachValue(inFrameState)
		}
	})
	fused := make([]bool, len(g.Blocks))
	for i, b := range g.Blocks {
		if t := b.Term; t != nil && t.Op == ir.OpIf && len(t.Inputs) == 1 {
			c := t.Inputs[0]
			fused[i] = isCompare(c) && c.Block == b && uses[c.ID] == 1
		}
	}
	return fused
}

// fused reports whether n, a node of block i, is the compare that block's If
// absorbed.
func (cc *compiler) fused(i int, n *ir.Node) bool {
	return cc.fusedIf[i] && n == cc.g.Blocks[i].Term.Inputs[0]
}

// assign gives n the next slot of the array its Kind selects.
func (cc *compiler) assign(n *ir.Node) (int32, error) {
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
