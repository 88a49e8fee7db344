package exec

import (
	"fmt"

	"pea/internal/bc"
	"pea/internal/ir"
	"pea/internal/rt"
)

// Oracle returns the tree-walking reference backend. It evaluates the
// scheduled graph node by node per invocation and is the
// differential-testing oracle the faster backends are checked against.
func Oracle() Backend { return oracleBackend{} }

type oracleBackend struct{}

func (oracleBackend) Name() string { return "oracle" }

// Compile is the identity lowering: the oracle executes the scheduled graph
// directly, so the artifact is just the graph.
func (oracleBackend) Compile(g *ir.Graph) (Code, error) { return oracleCode{g}, nil }

type oracleCode struct{ g *ir.Graph }

func (c oracleCode) Graph() *ir.Graph { return c.g }

func (c oracleCode) Run(e *Engine, args []rt.Value) (rt.Value, error) {
	return e.Run(c.g, args)
}

// frame holds the evaluation state of one oracle graph execution.
type frame struct {
	values map[*ir.Node]rt.Value
	args   []rt.Value
	// pending is the in-flight exception while control runs through a
	// dispatch chain: set when a guarded node traps or a covered Throw
	// fires, read by ExceptionObject, re-raised by Unwind.
	pending *rt.Trap
}

func (f *frame) set(n *ir.Node, v rt.Value) { f.values[n] = v }

func (f *frame) get(n *ir.Node) rt.Value {
	v, ok := f.values[n]
	if !ok {
		panic(fmt.Sprintf("exec: use of unevaluated %s", n))
	}
	return v
}

// Run executes g with the given arguments under the tree-walking oracle and
// returns the method result. It is the oracle backend's entry point, kept as
// a public Engine method because tests and tools run graphs directly.
func (e *Engine) Run(g *ir.Graph, args []rt.Value) (rt.Value, error) {
	f := &frame{values: make(map[*ir.Node]rt.Value, 64), args: args}
	block := g.Entry()
	var prev *ir.Block
outer:
	for {
		// Evaluate phis first, as a parallel copy based on the edge
		// we arrived through.
		if len(block.Phis) > 0 {
			idx := block.PredIndex(prev)
			if idx < 0 {
				return rt.Value{}, fmt.Errorf("exec: %s entered from non-predecessor", block)
			}
			tmp := make([]rt.Value, len(block.Phis))
			for i, phi := range block.Phis {
				in := phi.Inputs[idx]
				if in == nil {
					return rt.Value{}, fmt.Errorf("exec: phi v%d missing input %d", phi.ID, idx)
				}
				tmp[i] = f.get(in)
			}
			for i, phi := range block.Phis {
				f.set(phi, tmp[i])
			}
		}
		for _, n := range block.Nodes {
			if err := e.Env.ChargeSteps(1, g.Method); err != nil {
				return rt.Value{}, err
			}
			done, ret, err := e.evalNode(g, f, n)
			if err != nil {
				// A trap raised by the node an OnException terminator
				// guards (always the block's last node) transfers to the
				// dispatch chain instead of unwinding; anything else —
				// traps of unguarded nodes, step-budget exhaustion —
				// propagates.
				t := block.Term
				if tr, ok := err.(*rt.Trap); ok && t.Op == ir.OpOnException && t.Inputs[0] == n {
					f.pending = tr
					prev, block = block, block.Succs[1]
					continue outer
				}
				return rt.Value{}, err
			}
			if done {
				return ret, nil
			}
		}
		t := block.Term
		if err := e.Env.ChargeSteps(1, g.Method); err != nil {
			return rt.Value{}, err
		}
		// oplint:ignore — t is a block terminator; value and fixed ops
		// are dispatched by evalNode, and the default rejects anything
		// that is not a terminator.
		switch t.Op {
		case ir.OpGoto:
			prev, block = block, block.Succs[0]
		case ir.OpIf:
			cond := f.get(t.Inputs[0])
			if cond.I != 0 {
				prev, block = block, block.Succs[0]
			} else {
				prev, block = block, block.Succs[1]
			}
		case ir.OpOnException:
			// The guarded node completed without trapping.
			prev, block = block, block.Succs[0]
		case ir.OpReturn:
			if len(t.Inputs) == 1 {
				return f.get(t.Inputs[0]), nil
			}
			return rt.Value{}, nil
		case ir.OpThrow:
			tr := rt.Thrown(f.get(t.Inputs[0]).Ref, t.OriginMethod(g.Method), t.BCI)
			if len(block.Succs) == 1 { // covered: enter the dispatch chain
				f.pending = tr
				prev, block = block, block.Succs[0]
			} else {
				return rt.Value{}, tr
			}
		case ir.OpUnwind:
			if f.pending == nil {
				return rt.Value{}, fmt.Errorf("exec: Unwind with no pending exception")
			}
			return rt.Value{}, f.pending
		case ir.OpDeopt:
			return e.deopt(g, f, t)
		default:
			return rt.Value{}, fmt.Errorf("exec: bad terminator %s", t)
		}
	}
}

func (e *Engine) trap(g *ir.Graph, n *ir.Node, reason string) (bool, rt.Value, error) {
	return false, rt.Value{}, rt.NewTrap(reason, n.OriginMethod(g.Method), n.BCI)
}

// evalNode executes one non-terminator node. done=true means the whole
// method completed (a deopt path returned through the interpreter).
func (e *Engine) evalNode(g *ir.Graph, f *frame, n *ir.Node) (done bool, ret rt.Value, err error) {
	// oplint:ignore — evalNode sees only non-terminators (phis and
	// terminators are handled in the block loop); the default rejects
	// the rest.
	switch n.Op {
	case ir.OpParam:
		f.set(n, f.args[n.AuxInt])
	case ir.OpConst:
		f.set(n, rt.IntValue(n.AuxInt))
	case ir.OpConstNull:
		f.set(n, rt.Null)
	case ir.OpArith:
		a, b := f.get(n.Inputs[0]).I, f.get(n.Inputs[1]).I
		r, why := rt.Arith(n.Aux2, a, b)
		if why != "" {
			return e.trap(g, n, why)
		}
		f.set(n, rt.IntValue(r))
	case ir.OpNeg:
		f.set(n, rt.IntValue(-f.get(n.Inputs[0]).I))
	case ir.OpCmp:
		a, b := f.get(n.Inputs[0]).I, f.get(n.Inputs[1]).I
		f.set(n, rt.BoolValue(n.Cond.EvalInt(a, b)))
	case ir.OpRefEq:
		a, b := f.get(n.Inputs[0]), f.get(n.Inputs[1])
		eq := a.Ref == b.Ref
		if n.Cond == bc.CondNE {
			eq = !eq
		}
		f.set(n, rt.BoolValue(eq))
	case ir.OpInstanceOf:
		f.set(n, rt.BoolValue(rt.InstanceOf(f.get(n.Inputs[0]).Ref, n.Class)))
	case ir.OpNew:
		f.set(n, rt.RefValue(e.Env.AllocObject(n.Class)))
	case ir.OpNewArray:
		arr, why := e.Env.NewArray(n.ElemKind, f.get(n.Inputs[0]).I)
		if why != "" {
			return e.trap(g, n, why)
		}
		f.set(n, rt.RefValue(arr))
	case ir.OpMaterialize:
		slots := int(n.AuxInt) // array length, or the class's field count
		if n.Class != nil {
			slots = n.Class.NumFields()
		}
		if len(n.Inputs) != slots {
			return false, rt.Value{}, fmt.Errorf("exec: %s has %d values for %d slots", n, len(n.Inputs), slots)
		}
		obj := e.Env.Materialize(n.Class, n.ElemKind, n.AuxInt, n.AuxLock)
		for i, in := range n.Inputs {
			obj.Fields[i] = f.get(in)
		}
		f.set(n, rt.RefValue(obj))
	case ir.OpLoadField:
		v, why := e.Env.LoadField(f.get(n.Inputs[0]).Ref, n.Field.Offset, n.Field)
		if why != "" {
			return e.trap(g, n, why)
		}
		f.set(n, v)
	case ir.OpStoreField:
		why := e.Env.StoreField(f.get(n.Inputs[0]).Ref, n.Field.Offset, n.Field, f.get(n.Inputs[1]))
		if why != "" {
			return e.trap(g, n, why)
		}
	case ir.OpLoadStatic:
		f.set(n, e.Env.GetStatic(n.Field))
	case ir.OpStoreStatic:
		e.Env.SetStatic(n.Field, f.get(n.Inputs[0]))
	case ir.OpLoadIndexed:
		el, why := rt.Element(f.get(n.Inputs[0]).Ref, f.get(n.Inputs[1]).I, bc.OpArrayLoad)
		if why != "" {
			return e.trap(g, n, why)
		}
		f.set(n, *el)
	case ir.OpStoreIndexed:
		el, why := rt.Element(f.get(n.Inputs[0]).Ref, f.get(n.Inputs[1]).I, bc.OpArrayStore)
		if why != "" {
			return e.trap(g, n, why)
		}
		*el = f.get(n.Inputs[2])
	case ir.OpArrayLength:
		ln, why := rt.ArrayLength(f.get(n.Inputs[0]).Ref)
		if why != "" {
			return e.trap(g, n, why)
		}
		f.set(n, rt.IntValue(ln))
	case ir.OpMonitorEnter:
		if why := e.Env.Lock(f.get(n.Inputs[0]).Ref); why != "" {
			return e.trap(g, n, why)
		}
	case ir.OpMonitorExit:
		if why := e.Env.Unlock(f.get(n.Inputs[0]).Ref); why != "" {
			return e.trap(g, n, why)
		}
	case ir.OpInvoke:
		args := make([]rt.Value, len(n.Inputs))
		for i, in := range n.Inputs {
			args[i] = f.get(in)
		}
		callee := n.Method
		if n.Aux2 != bc.OpInvokeStatic {
			var why string
			if callee, why = rt.Receiver(args[0].Ref, callee, n.Aux2 == bc.OpInvokeVirtual); why != "" {
				return e.trap(g, n, why)
			}
		}
		if e.Invoke == nil {
			return e.trap(g, n, "no invoke handler for "+callee.QualifiedName())
		}
		r, cerr := e.Invoke(callee, args)
		if cerr != nil {
			return false, rt.Value{}, cerr
		}
		if n.Kind != bc.KindVoid {
			f.set(n, r)
		}
	case ir.OpPrint:
		e.Env.Print(f.get(n.Inputs[0]).I)
	case ir.OpRand:
		f.set(n, rt.IntValue(e.Env.Rand(n.AuxInt)))
	case ir.OpVirtualObject:
		// No runtime effect: virtual objects exist only inside frame
		// states and are materialized by the deoptimization runtime.
	case ir.OpExceptionObject:
		if f.pending == nil {
			return false, rt.Value{}, fmt.Errorf("exec: ExceptionObject with no pending exception")
		}
		f.set(n, rt.HandlerValue(f.pending))
	default:
		return false, rt.Value{}, fmt.Errorf("exec: unhandled node %s", n)
	}
	return false, rt.Value{}, nil
}

// deopt hands control to the interpreter via the engine's shared transfer
// path.
func (e *Engine) deopt(g *ir.Graph, f *frame, n *ir.Node) (rt.Value, error) {
	return e.DeoptTransfer(g, n, func(x *ir.Node) (rt.Value, bool) {
		v, ok := f.values[x]
		return v, ok
	})
}
