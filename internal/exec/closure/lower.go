package closure

import (
	"fmt"

	"pea/internal/bc"
	"pea/internal/ir"
	"pea/internal/rt"
)

// trap aborts the invocation with the trap the kernel reported at this node.
// Only ever called on error paths, so the allocation is fine.
func trap(reason string, m *bc.Method, bci int) {
	panic(abort{rt.NewTrap(reason, m, bci)})
}

// b2i is the 0/1 encoding of a guest boolean.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// lowerNode lowers one non-terminator node to a closure with operands
// pre-resolved to typed slot indices and auxiliaries folded into captures.
// An rt.Value is built only where a value crosses into the heap or out of
// the frame. A nil op (with nil error) means the node needs no runtime work
// (constants and parameters are frame-initialization, virtual objects are
// deopt-metadata-only).
func (cc *compiler) lowerNode(n *ir.Node) (op, error) {
	m, bci := n.OriginMethod(cc.g.Method), n.BCI
	// oplint:ignore — intentionally partial: lowerNode sees only placed
	// non-terminator ops (phis are lowered into edge copies, terminators
	// by lowerTerm), and the default below rejects anything else at
	// compile time instead of at run time.
	switch n.Op {
	case ir.OpParam, ir.OpConst, ir.OpConstNull, ir.OpVirtualObject:
		return nil, nil

	case ir.OpArith:
		return cc.lowerArith(n)

	case ir.OpNeg:
		a, err := cc.intIn(n, 0)
		if err != nil {
			return nil, err
		}
		d, err := cc.intDst(n)
		if err != nil {
			return nil, err
		}
		return func(f *frame) { f.ints[d] = -f.ints[a] }, nil

	case ir.OpCmp:
		a, b, d, err := cc.intBin(n)
		if err != nil {
			return nil, err
		}
		cond := n.Cond
		return func(f *frame) { f.ints[d] = b2i(cond.EvalInt(f.ints[a], f.ints[b])) }, nil

	case ir.OpRefEq:
		a, b, err := cc.refPair(n)
		if err != nil {
			return nil, err
		}
		d, err := cc.intDst(n)
		if err != nil {
			return nil, err
		}
		if n.Cond == bc.CondNE {
			return func(f *frame) { f.ints[d] = b2i(f.refs[a] != f.refs[b]) }, nil
		}
		return func(f *frame) { f.ints[d] = b2i(f.refs[a] == f.refs[b]) }, nil

	case ir.OpInstanceOf:
		a, err := cc.refIn(n, 0)
		if err != nil {
			return nil, err
		}
		d, err := cc.intDst(n)
		if err != nil {
			return nil, err
		}
		cls := n.Class
		return func(f *frame) { f.ints[d] = b2i(rt.InstanceOf(f.refs[a], cls)) }, nil

	case ir.OpNew:
		d, err := cc.refDst(n)
		if err != nil {
			return nil, err
		}
		cls := n.Class
		return func(f *frame) { f.refs[d] = f.env.AllocObject(cls) }, nil

	case ir.OpNewArray:
		a, err := cc.intIn(n, 0)
		if err != nil {
			return nil, err
		}
		d, err := cc.refDst(n)
		if err != nil {
			return nil, err
		}
		ek := n.ElemKind
		return func(f *frame) {
			arr, why := f.env.NewArray(ek, f.ints[a])
			if why != "" {
				trap(why, m, bci)
			}
			f.refs[d] = arr
		}, nil

	case ir.OpMaterialize:
		return cc.lowerMaterialize(n)

	case ir.OpLoadField:
		a, err := cc.refIn(n, 0)
		if err != nil {
			return nil, err
		}
		d, err := cc.slotOf(n, n.Field.Kind)
		if err != nil {
			return nil, err
		}
		fld, off := n.Field, n.Field.Offset
		if fld.Kind == bc.KindRef {
			return func(f *frame) {
				v, why := f.env.LoadField(f.refs[a], off, fld)
				if why != "" {
					trap(why, m, bci)
				}
				f.refs[d] = v.Ref
			}, nil
		}
		return func(f *frame) {
			v, why := f.env.LoadField(f.refs[a], off, fld)
			if why != "" {
				trap(why, m, bci)
			}
			f.ints[d] = v.I
		}, nil

	case ir.OpStoreField:
		a, err := cc.refIn(n, 0)
		if err != nil {
			return nil, err
		}
		v, err := cc.slotOf(n.Inputs[1], n.Field.Kind)
		if err != nil {
			return nil, err
		}
		fld, off := n.Field, n.Field.Offset
		if fld.Kind == bc.KindRef {
			return func(f *frame) {
				if why := f.env.StoreField(f.refs[a], off, fld, rt.RefValue(f.refs[v])); why != "" {
					trap(why, m, bci)
				}
			}, nil
		}
		return func(f *frame) {
			if why := f.env.StoreField(f.refs[a], off, fld, rt.IntValue(f.ints[v])); why != "" {
				trap(why, m, bci)
			}
		}, nil

	case ir.OpLoadStatic:
		d, err := cc.slotOf(n, n.Field.Kind)
		if err != nil {
			return nil, err
		}
		fld := n.Field
		if fld.Kind == bc.KindRef {
			return func(f *frame) { f.refs[d] = f.env.GetStatic(fld).Ref }, nil
		}
		return func(f *frame) { f.ints[d] = f.env.GetStatic(fld).I }, nil

	case ir.OpStoreStatic:
		a, err := cc.slotOf(n.Inputs[0], n.Field.Kind)
		if err != nil {
			return nil, err
		}
		fld := n.Field
		if fld.Kind == bc.KindRef {
			return func(f *frame) { f.env.SetStatic(fld, rt.RefValue(f.refs[a])) }, nil
		}
		return func(f *frame) { f.env.SetStatic(fld, rt.IntValue(f.ints[a])) }, nil

	case ir.OpLoadIndexed:
		a, err := cc.refIn(n, 0)
		if err != nil {
			return nil, err
		}
		i, err := cc.intIn(n, 1)
		if err != nil {
			return nil, err
		}
		d, err := cc.slotOf(n, n.ElemKind)
		if err != nil {
			return nil, err
		}
		if n.ElemKind == bc.KindRef {
			return func(f *frame) {
				el, why := rt.Element(f.refs[a], f.ints[i], bc.OpArrayLoad)
				if why != "" {
					trap(why, m, bci)
				}
				f.refs[d] = el.Ref
			}, nil
		}
		return func(f *frame) {
			el, why := rt.Element(f.refs[a], f.ints[i], bc.OpArrayLoad)
			if why != "" {
				trap(why, m, bci)
			}
			f.ints[d] = el.I
		}, nil

	case ir.OpStoreIndexed:
		a, err := cc.refIn(n, 0)
		if err != nil {
			return nil, err
		}
		i, err := cc.intIn(n, 1)
		if err != nil {
			return nil, err
		}
		v, err := cc.slotOf(n.Inputs[2], n.ElemKind)
		if err != nil {
			return nil, err
		}
		if n.ElemKind == bc.KindRef {
			return func(f *frame) {
				el, why := rt.Element(f.refs[a], f.ints[i], bc.OpArrayStore)
				if why != "" {
					trap(why, m, bci)
				}
				*el = rt.RefValue(f.refs[v])
			}, nil
		}
		return func(f *frame) {
			el, why := rt.Element(f.refs[a], f.ints[i], bc.OpArrayStore)
			if why != "" {
				trap(why, m, bci)
			}
			*el = rt.IntValue(f.ints[v])
		}, nil

	case ir.OpArrayLength:
		a, err := cc.refIn(n, 0)
		if err != nil {
			return nil, err
		}
		d, err := cc.intDst(n)
		if err != nil {
			return nil, err
		}
		return func(f *frame) {
			ln, why := rt.ArrayLength(f.refs[a])
			if why != "" {
				trap(why, m, bci)
			}
			f.ints[d] = ln
		}, nil

	case ir.OpMonitorEnter:
		a, err := cc.refIn(n, 0)
		if err != nil {
			return nil, err
		}
		return func(f *frame) {
			if why := f.env.Lock(f.refs[a]); why != "" {
				trap(why, m, bci)
			}
		}, nil

	case ir.OpMonitorExit:
		a, err := cc.refIn(n, 0)
		if err != nil {
			return nil, err
		}
		return func(f *frame) {
			if why := f.env.Unlock(f.refs[a]); why != "" {
				trap(why, m, bci)
			}
		}, nil

	case ir.OpInvoke:
		return cc.lowerInvoke(n)

	case ir.OpPrint:
		a, err := cc.intIn(n, 0)
		if err != nil {
			return nil, err
		}
		return func(f *frame) { f.env.Print(f.ints[a]) }, nil

	case ir.OpRand:
		d, err := cc.intDst(n)
		if err != nil {
			return nil, err
		}
		mod := n.AuxInt
		return func(f *frame) { f.ints[d] = f.env.Rand(mod) }, nil

	case ir.OpExceptionObject:
		d, err := cc.refDst(n)
		if err != nil {
			return nil, err
		}
		return func(f *frame) {
			if f.pending == nil {
				panic(abort{fmt.Errorf("closure: ExceptionObject with no pending exception")})
			}
			// The thrown object, or null for an intrinsic trap.
			f.refs[d] = f.pending.Value
		}, nil

	default:
		return nil, fmt.Errorf("closure: cannot lower %s in %s", n, cc.g.Method.QualifiedName())
	}
}

// intBin resolves the two int inputs and the int destination of a binary
// node.
func (cc *compiler) intBin(n *ir.Node) (a, b, d int32, err error) {
	if a, err = cc.intIn(n, 0); err != nil {
		return
	}
	if b, err = cc.intIn(n, 1); err != nil {
		return
	}
	d, err = cc.intDst(n)
	return
}

// refPair resolves the two ref inputs of a reference comparison.
func (cc *compiler) refPair(n *ir.Node) (a, b int32, err error) {
	if a, err = cc.refIn(n, 0); err != nil {
		return
	}
	b, err = cc.refIn(n, 1)
	return
}

// lowerArith specializes each arithmetic opcode into its own closure around
// the kernel's definition of it.
func (cc *compiler) lowerArith(n *ir.Node) (op, error) {
	a, b, d, err := cc.intBin(n)
	if err != nil {
		return nil, err
	}
	m, bci := n.OriginMethod(cc.g.Method), n.BCI
	// oplint:ignore — Aux2 on OpArith holds only the arithmetic subset of
	// bc.Op (rt.Arith's domain); the default case rejects the rest.
	switch n.Aux2 {
	case bc.OpAdd:
		return func(f *frame) { f.ints[d] = f.ints[a] + f.ints[b] }, nil
	case bc.OpSub:
		return func(f *frame) { f.ints[d] = f.ints[a] - f.ints[b] }, nil
	case bc.OpMul:
		return func(f *frame) { f.ints[d] = f.ints[a] * f.ints[b] }, nil
	case bc.OpDiv:
		return func(f *frame) {
			r, why := rt.Div(f.ints[a], f.ints[b])
			if why != "" {
				trap(why, m, bci)
			}
			f.ints[d] = r
		}, nil
	case bc.OpRem:
		return func(f *frame) {
			r, why := rt.Rem(f.ints[a], f.ints[b])
			if why != "" {
				trap(why, m, bci)
			}
			f.ints[d] = r
		}, nil
	case bc.OpAnd:
		return func(f *frame) { f.ints[d] = f.ints[a] & f.ints[b] }, nil
	case bc.OpOr:
		return func(f *frame) { f.ints[d] = f.ints[a] | f.ints[b] }, nil
	case bc.OpXor:
		return func(f *frame) { f.ints[d] = f.ints[a] ^ f.ints[b] }, nil
	case bc.OpShl:
		return func(f *frame) { f.ints[d] = rt.Shl(f.ints[a], f.ints[b]) }, nil
	case bc.OpShr:
		return func(f *frame) { f.ints[d] = rt.Shr(f.ints[a], f.ints[b]) }, nil
	case bc.OpUShr:
		return func(f *frame) { f.ints[d] = rt.UShr(f.ints[a], f.ints[b]) }, nil
	default:
		return nil, fmt.Errorf("closure: %s: not an arithmetic op: %s", cc.g.Method.QualifiedName(), n.Aux2)
	}
}

// lowerMaterialize validates the shape at compile time (a field/value count
// or kind mismatch is only reachable from malformed IR), leaving a pure fill
// at run time.
func (cc *compiler) lowerMaterialize(n *ir.Node) (op, error) {
	d, err := cc.refDst(n)
	if err != nil {
		return nil, err
	}
	srcs := make([]operand, len(n.Inputs))
	for i, in := range n.Inputs {
		if srcs[i], err = cc.operandOf(in); err != nil {
			return nil, err
		}
	}
	locks := n.AuxLock
	cls, ek, ln := n.Class, n.ElemKind, n.AuxInt
	if cls != nil {
		if len(n.Inputs) != cls.NumFields() {
			return nil, fmt.Errorf("closure: materialize %s with %d values for %d fields",
				cls.Name, len(n.Inputs), cls.NumFields())
		}
		for i, fld := range cls.Fields {
			if n.Inputs[i].Kind != fld.Kind {
				return nil, cc.kindErr(n.Inputs[i], fld.Kind)
			}
		}
	} else {
		if int64(len(n.Inputs)) != ln {
			return nil, fmt.Errorf("closure: materialize array with %d values for length %d",
				len(n.Inputs), ln)
		}
		for _, in := range n.Inputs {
			if in.Kind != ek {
				return nil, cc.kindErr(in, ek)
			}
		}
	}
	return func(f *frame) {
		obj := f.env.Materialize(cls, ek, ln, locks)
		for i, s := range srcs {
			obj.Fields[i] = f.load(s)
		}
		f.refs[d] = obj
	}, nil
}

// callSite is one lowered OpInvoke: callee, dispatch kind and argument
// operands pre-resolved, trap identity captured.
type callSite struct {
	callee   *bc.Method
	dispatch bc.Op
	args     []operand
	m        *bc.Method
	bci      int
}

// lowerInvoke pre-resolves the call site and specializes the result store.
func (cc *compiler) lowerInvoke(n *ir.Node) (op, error) {
	s := &callSite{
		callee:   n.Method,
		dispatch: n.Aux2,
		args:     make([]operand, len(n.Inputs)),
		m:        n.OriginMethod(cc.g.Method),
		bci:      n.BCI,
	}
	for i, in := range n.Inputs {
		var err error
		if s.args[i], err = cc.operandOf(in); err != nil {
			return nil, err
		}
	}
	if s.dispatch != bc.OpInvokeStatic && (len(s.args) == 0 || !s.args[0].ref) {
		return nil, fmt.Errorf("closure: %s: %s has no reference receiver", cc.g.Method.QualifiedName(), n)
	}
	if len(s.args) > cc.code.nArgs {
		cc.code.nArgs = len(s.args)
	}
	if n.Kind == bc.KindVoid {
		return func(f *frame) { f.call(s) }, nil
	}
	d, err := cc.slotOf(n, n.Kind)
	if err != nil {
		return nil, err
	}
	if n.Kind == bc.KindRef {
		return func(f *frame) { f.refs[d] = f.call(s).Ref }, nil
	}
	return func(f *frame) { f.ints[d] = f.call(s).I }, nil
}

// call performs the invoke at s. Arguments are passed in the frame's scratch
// vector, not a fresh one: every callee copies them out before running
// (closure.Run into its slots, interp.NewFrame into its locals; the oracle
// reads them only while this frame is suspended in the call), and a
// re-entrant call of this code runs in another pooled frame.
func (f *frame) call(s *callSite) rt.Value {
	args := f.args[:len(s.args)]
	for i, a := range s.args {
		args[i] = f.load(a)
	}
	target := s.callee
	if s.dispatch != bc.OpInvokeStatic {
		var why string
		if target, why = rt.Receiver(args[0].Ref, target, s.dispatch == bc.OpInvokeVirtual); why != "" {
			trap(why, s.m, s.bci)
		}
	}
	if f.eng.Invoke == nil {
		trap("no invoke handler for "+target.QualifiedName(), s.m, s.bci)
	}
	r, err := f.eng.Invoke(target, args)
	if err != nil {
		panic(abort{err})
	}
	return r
}

// lowerTerm lowers a block terminator: successor indices are pre-linked and
// each outgoing edge's phi copy is baked into the returned func. Only
// termOf calls it.
func (cc *compiler) lowerTerm(b *ir.Block, t *ir.Node) (term, error) {
	m, bci := t.OriginMethod(cc.g.Method), t.BCI
	// oplint:ignore — intentionally partial: only terminators reach
	// lowerTerm (value and fixed ops go through lowerNode), and the
	// default rejects the rest at compile time.
	switch t.Op {
	case ir.OpGoto:
		e, err := cc.edge(b, b.Succs[0])
		if err != nil {
			return nil, err
		}
		if len(e.ints) != 0 || len(e.refs) != 0 {
			return func(f *frame) int { return f.take(e.ints, e.refs, e.next) }, nil
		}
		// A copy-free jump into a block with no ops runs that block's
		// terminator as its own and charges that block's steps too. A jump
		// into a busy block (a self-edge, a cycle of op-less blocks)
		// dispatches.
		if len(cc.opsOf(e.next)) == 0 && !cc.terms[e.next].busy {
			to, err := cc.termOf(e.next)
			if err != nil {
				return nil, err
			}
			cc.terms[cc.blkIdx[b.ID]].steps += int64(len(cc.g.Blocks[e.next].Nodes)) + to.steps
			return to.t, nil
		}
		next := e.next
		return func(f *frame) int { return next }, nil

	case ir.OpIf:
		yes, err := cc.edge(b, b.Succs[0])
		if err != nil {
			return nil, err
		}
		no, err := cc.edge(b, b.Succs[1])
		if err != nil {
			return nil, err
		}
		if cc.fusedIf[cc.blkIdx[b.ID]] {
			return cc.lowerFusedIf(t.Inputs[0], yes, no)
		}
		c, err := cc.intIn(t, 0)
		if err != nil {
			return nil, err
		}
		return func(f *frame) int {
			if f.ints[c] != 0 {
				return f.take(yes.ints, yes.refs, yes.next)
			}
			return f.take(no.ints, no.refs, no.next)
		}, nil

	case ir.OpReturn:
		if len(t.Inputs) == 1 {
			v, err := cc.operandOf(t.Inputs[0])
			if err != nil {
				return nil, err
			}
			if v.ref {
				return func(f *frame) int {
					f.ret = rt.RefValue(f.refs[v.slot])
					return done
				}, nil
			}
			return func(f *frame) int {
				f.ret = rt.IntValue(f.ints[v.slot])
				return done
			}, nil
		}
		return func(f *frame) int {
			f.ret = rt.Value{}
			return done
		}, nil

	case ir.OpThrow:
		v, err := cc.refIn(t, 0)
		if err != nil {
			return nil, err
		}
		if len(b.Succs) == 1 {
			// Covered throw: record the exception and enter the dispatch
			// chain directly.
			e, err := cc.edge(b, b.Succs[0])
			if err != nil {
				return nil, err
			}
			return func(f *frame) int {
				f.pending = rt.Thrown(f.refs[v], m, bci)
				return f.take(e.ints, e.refs, e.next)
			}, nil
		}
		return func(f *frame) int { panic(abort{rt.Thrown(f.refs[v], m, bci)}) }, nil

	case ir.OpOnException:
		normal, err := cc.edge(b, b.Succs[0])
		if err != nil {
			return nil, err
		}
		if cannotTrap(t.Inputs[0]) {
			return func(f *frame) int { return f.take(normal.ints, normal.refs, normal.next) }, nil
		}
		dispatch, err := cc.edge(b, b.Succs[1])
		if err != nil {
			return nil, err
		}
		return func(f *frame) int {
			if f.pending != nil {
				return f.take(dispatch.ints, dispatch.refs, dispatch.next)
			}
			return f.take(normal.ints, normal.refs, normal.next)
		}, nil

	case ir.OpUnwind:
		return func(f *frame) int {
			if f.pending == nil {
				panic(abort{fmt.Errorf("closure: Unwind with no pending exception")})
			}
			panic(abort{f.pending})
		}, nil

	case ir.OpDeopt:
		g := cc.g
		return func(f *frame) int {
			v, derr := f.eng.DeoptTransfer(g, t, f.value)
			if derr != nil {
				panic(abort{derr})
			}
			f.ret = v
			return done
		}, nil

	default:
		return nil, fmt.Errorf("closure: bad terminator %s in %s", t, cc.g.Method.QualifiedName())
	}
}

// lowerFusedIf lowers an If whose condition is a fused compare: the
// terminator tests the compare's operands directly, one closure per
// condition, so the compare costs no dispatch and no slot traffic.
func (cc *compiler) lowerFusedIf(c *ir.Node, yes, no edge) (term, error) {
	if c.Op == ir.OpRefEq {
		a, b, err := cc.refPair(c)
		if err != nil {
			return nil, err
		}
		if c.Cond == bc.CondNE {
			return func(f *frame) int {
				if f.refs[a] != f.refs[b] {
					return f.take(yes.ints, yes.refs, yes.next)
				}
				return f.take(no.ints, no.refs, no.next)
			}, nil
		}
		return func(f *frame) int {
			if f.refs[a] == f.refs[b] {
				return f.take(yes.ints, yes.refs, yes.next)
			}
			return f.take(no.ints, no.refs, no.next)
		}, nil
	}
	a, err := cc.intIn(c, 0)
	if err != nil {
		return nil, err
	}
	b, err := cc.intIn(c, 1)
	if err != nil {
		return nil, err
	}
	switch c.Cond {
	case bc.CondEQ:
		return func(f *frame) int {
			if f.ints[a] == f.ints[b] {
				return f.take(yes.ints, yes.refs, yes.next)
			}
			return f.take(no.ints, no.refs, no.next)
		}, nil
	case bc.CondNE:
		return func(f *frame) int {
			if f.ints[a] != f.ints[b] {
				return f.take(yes.ints, yes.refs, yes.next)
			}
			return f.take(no.ints, no.refs, no.next)
		}, nil
	case bc.CondLT:
		return func(f *frame) int {
			if f.ints[a] < f.ints[b] {
				return f.take(yes.ints, yes.refs, yes.next)
			}
			return f.take(no.ints, no.refs, no.next)
		}, nil
	case bc.CondLE:
		return func(f *frame) int {
			if f.ints[a] <= f.ints[b] {
				return f.take(yes.ints, yes.refs, yes.next)
			}
			return f.take(no.ints, no.refs, no.next)
		}, nil
	case bc.CondGT:
		return func(f *frame) int {
			if f.ints[a] > f.ints[b] {
				return f.take(yes.ints, yes.refs, yes.next)
			}
			return f.take(no.ints, no.refs, no.next)
		}, nil
	case bc.CondGE:
		return func(f *frame) int {
			if f.ints[a] >= f.ints[b] {
				return f.take(yes.ints, yes.refs, yes.next)
			}
			return f.take(no.ints, no.refs, no.next)
		}, nil
	default:
		return nil, fmt.Errorf("closure: %s: bad condition in %s", cc.g.Method.QualifiedName(), c)
	}
}
