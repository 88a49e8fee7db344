package exec

import (
	"fmt"

	"pea/internal/bc"
	"pea/internal/interp"
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
			if err := e.ChargeSteps(1, g); err != nil {
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
		if err := e.ChargeSteps(1, g); err != nil {
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
			v := f.get(t.Inputs[0])
			var tr *rt.Trap
			if v.Ref == nil {
				tr = rt.NewTrap("null throw", t.OriginMethod(g.Method), t.BCI)
			} else {
				tr = rt.NewThrow(v.Ref, t.OriginMethod(g.Method), t.BCI)
			}
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

func (e *Engine) trap(g *ir.Graph, n *ir.Node, reason string) error {
	return rt.NewTrap(reason, n.OriginMethod(g.Method), n.BCI)
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
		r, aerr := interp.EvalArith(n.Aux2, a, b)
		if aerr != nil {
			return false, rt.Value{}, e.trap(g, n, aerr.Error())
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
		v := f.get(n.Inputs[0])
		ok := v.Ref != nil && !v.Ref.IsArray() && v.Ref.Class.IsSubclassOf(n.Class)
		f.set(n, rt.BoolValue(ok))
	case ir.OpNew:
		f.set(n, rt.RefValue(e.Env.AllocObject(n.Class)))
	case ir.OpNewArray:
		ln := f.get(n.Inputs[0]).I
		if ln < 0 {
			return false, rt.Value{}, e.trap(g, n, fmt.Sprintf("negative array size %d", ln))
		}
		f.set(n, rt.RefValue(e.Env.AllocArray(n.ElemKind, ln)))
	case ir.OpMaterialize:
		v, merr := e.materializeNode(f, n)
		if merr != nil {
			return false, rt.Value{}, e.trap(g, n, merr.Error())
		}
		f.set(n, v)
	case ir.OpLoadField:
		obj := f.get(n.Inputs[0])
		if obj.Ref == nil {
			return false, rt.Value{}, e.trap(g, n, "null dereference in getfield "+n.Field.QualifiedName())
		}
		e.Env.Stats.FieldLoads++
		f.set(n, obj.Ref.Fields[n.Field.Offset])
	case ir.OpStoreField:
		obj := f.get(n.Inputs[0])
		if obj.Ref == nil {
			return false, rt.Value{}, e.trap(g, n, "null dereference in putfield "+n.Field.QualifiedName())
		}
		e.Env.Stats.FieldStores++
		obj.Ref.Fields[n.Field.Offset] = f.get(n.Inputs[1])
	case ir.OpLoadStatic:
		f.set(n, e.Env.GetStatic(n.Field))
	case ir.OpStoreStatic:
		e.Env.SetStatic(n.Field, f.get(n.Inputs[0]))
	case ir.OpLoadIndexed:
		arr := f.get(n.Inputs[0])
		idx := f.get(n.Inputs[1]).I
		if arr.Ref == nil {
			return false, rt.Value{}, e.trap(g, n, "null dereference in arrayload")
		}
		if idx < 0 || idx >= int64(arr.Ref.Len()) {
			return false, rt.Value{}, e.trap(g, n,
				fmt.Sprintf("array index %d out of range [0,%d)", idx, arr.Ref.Len()))
		}
		f.set(n, arr.Ref.Fields[idx])
	case ir.OpStoreIndexed:
		arr := f.get(n.Inputs[0])
		idx := f.get(n.Inputs[1]).I
		if arr.Ref == nil {
			return false, rt.Value{}, e.trap(g, n, "null dereference in arraystore")
		}
		if idx < 0 || idx >= int64(arr.Ref.Len()) {
			return false, rt.Value{}, e.trap(g, n,
				fmt.Sprintf("array index %d out of range [0,%d)", idx, arr.Ref.Len()))
		}
		arr.Ref.Fields[idx] = f.get(n.Inputs[2])
	case ir.OpArrayLength:
		arr := f.get(n.Inputs[0])
		if arr.Ref == nil {
			return false, rt.Value{}, e.trap(g, n, "null dereference in arraylen")
		}
		f.set(n, rt.IntValue(int64(arr.Ref.Len())))
	case ir.OpMonitorEnter:
		obj := f.get(n.Inputs[0])
		if obj.Ref == nil {
			return false, rt.Value{}, e.trap(g, n, "null dereference in monitorenter")
		}
		e.Env.MonitorEnter(obj.Ref)
	case ir.OpMonitorExit:
		obj := f.get(n.Inputs[0])
		if obj.Ref == nil {
			return false, rt.Value{}, e.trap(g, n, "null dereference in monitorexit")
		}
		if merr := e.Env.MonitorExit(obj.Ref); merr != nil {
			return false, rt.Value{}, e.trap(g, n, merr.Error())
		}
	case ir.OpInvoke:
		args := make([]rt.Value, len(n.Inputs))
		for i, in := range n.Inputs {
			args[i] = f.get(in)
		}
		callee := n.Method
		if n.Aux2 != bc.OpInvokeStatic {
			recv := args[0]
			if recv.Ref == nil {
				return false, rt.Value{}, e.trap(g, n, "null receiver calling "+callee.QualifiedName())
			}
			if n.Aux2 == bc.OpInvokeVirtual {
				callee = recv.Ref.Class.VTable[callee.VSlot]
			}
		}
		if e.Invoke == nil {
			return false, rt.Value{}, e.trap(g, n, "no invoke handler for "+callee.QualifiedName())
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

// materializeNode allocates and initializes an object or array from an
// OpMaterialize node, re-establishing elided locks.
func (e *Engine) materializeNode(f *frame, n *ir.Node) (rt.Value, error) {
	var obj *rt.Object
	if n.Class != nil {
		obj = e.Env.AllocObject(n.Class)
		if len(n.Inputs) != n.Class.NumFields() {
			return rt.Value{}, fmt.Errorf("materialize %s with %d values for %d fields",
				n.Class.Name, len(n.Inputs), n.Class.NumFields())
		}
	} else {
		obj = e.Env.AllocArray(n.ElemKind, n.AuxInt)
		if int64(len(n.Inputs)) != n.AuxInt {
			return rt.Value{}, fmt.Errorf("materialize array with %d values for length %d",
				len(n.Inputs), n.AuxInt)
		}
	}
	for i, in := range n.Inputs {
		obj.Fields[i] = f.get(in)
	}
	for k := 0; k < n.AuxLock; k++ {
		e.Env.MonitorEnter(obj)
	}
	e.Env.Stats.Materializations++
	return rt.RefValue(obj), nil
}

// deopt hands control to the interpreter via the engine's shared transfer
// path.
func (e *Engine) deopt(g *ir.Graph, f *frame, n *ir.Node) (rt.Value, error) {
	return e.DeoptTransfer(g, n, func(x *ir.Node) (rt.Value, bool) {
		v, ok := f.values[x]
		return v, ok
	})
}
