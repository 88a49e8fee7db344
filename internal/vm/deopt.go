package vm

import (
	"fmt"

	"pea/internal/bc"
	"pea/internal/interp"
	"pea/internal/ir"
	"pea/internal/rt"
)

// deopt transfers execution from compiled code to the interpreter at the
// frame state recorded on the Deopt node n (paper §2, §5.5). It
// materializes every virtual object recorded in the state chain —
// allocating it, filling its fields (following references between virtual
// objects), and re-acquiring elided locks — then builds one interpreter
// frame per chained FrameState and resumes them innermost-first, completing
// each outer invoke with the inner frame's return value.
//
// Whether the compiled code is discarded depends on the deopt's recorded
// action: only DeoptActionInvalidateSpeculation (a failed speculative
// assumption, e.g. a pruned branch that was taken after all) invalidates
// the method's code and blacklists future speculation. Other deopts are
// point exits — the installed code stays valid and nothing is recompiled.
func (vm *VM) deopt(g *ir.Graph, n *ir.Node, eval func(x *ir.Node) (rt.Value, bool)) (rt.Value, error) {
	fs := n.FrameState
	if fs == nil {
		return rt.Value{}, fmt.Errorf("vm: deopt node %s has no frame state", n)
	}
	vm.Opts.Sink.VMDeopt(g.Method, n.ID, n.DeoptReason)
	// Collect virtual object descriptors from the whole chain.
	descs := make(map[*ir.Node]*ir.VirtualObjectState)
	for s := fs; s != nil; s = s.Outer {
		for _, vo := range s.VirtualObjects {
			descs[vo.Object] = vo
		}
	}

	if n.Action == ir.DeoptActionInvalidateSpeculation {
		// The speculative assumption failed: drop the code (standard
		// and OSR entries alike) and recompile without speculation next
		// time the method becomes hot.
		outermost := fs
		for outermost.Outer != nil {
			outermost = outermost.Outer
		}
		reason := n.DeoptReason
		if reason == "" {
			reason = "speculation-failed"
		}
		vm.Invalidate(outermost.Method, reason)
	}

	materialized := make(map[*ir.Node]*rt.Object)
	var valueOf func(n *ir.Node) (rt.Value, error)
	var materializeVO func(n *ir.Node) (*rt.Object, error)

	materializeVO = func(n *ir.Node) (*rt.Object, error) {
		if obj, ok := materialized[n]; ok {
			return obj, nil
		}
		vo, ok := descs[n]
		if !ok {
			return nil, fmt.Errorf("vm: deopt: no descriptor for %s", n)
		}
		obj := vm.Env.Materialize(n.Class, n.ElemKind, n.AuxLen, vo.LockDepth)
		// Register before filling fields: virtual object graphs are
		// acyclic by construction, but self-maps stay cheap this way.
		materialized[n] = obj
		for i, v := range vo.Values {
			fv, err := valueOf(v)
			if err != nil {
				return nil, err
			}
			obj.Fields[i] = fv
		}
		// Attribute the rematerialization to the allocation site PEA
		// removed: virtual objects carry the (Method, BCI) of the original
		// OpNew, with the deopting frame's method as a fallback for
		// hand-built graphs.
		var desc string // the allocated type, named for a tracing sink only
		switch {
		case !vm.Opts.Sink.Traces():
		case n.Class != nil:
			desc = n.Class.Name
		default:
			desc = fmt.Sprintf("%s[%d]", n.ElemKind, n.AuxLen)
		}
		vm.Opts.Sink.VMRematerialize(fs.Method, n.AuxInt, n.Method, n.BCI, desc)
		return obj, nil
	}

	valueOf = func(n *ir.Node) (rt.Value, error) {
		if n == nil {
			// Dead slot: the interpreter never reads it; the zero
			// value is 0 and null alike.
			return rt.Value{}, nil
		}
		if n.Op == ir.OpVirtualObject {
			obj, err := materializeVO(n)
			if err != nil {
				return rt.Value{}, err
			}
			return rt.RefValue(obj), nil
		}
		v, ok := eval(n)
		if !ok {
			return rt.Value{}, fmt.Errorf("vm: deopt: %s has no runtime value", n)
		}
		return v, nil
	}

	// Build and run frames innermost-first.
	buildFrame := func(s *ir.FrameState) (*interp.Frame, error) {
		f := &interp.Frame{
			Method: s.Method,
			PC:     s.BCI,
			Locals: make([]rt.Value, len(s.Locals)),
			Stack:  make([]rt.Value, 0, len(s.Stack)),
		}
		for i, n := range s.Locals {
			v, err := valueOf(n)
			if err != nil {
				return nil, err
			}
			f.Locals[i] = v
		}
		for _, n := range s.Stack {
			v, err := valueOf(n)
			if err != nil {
				return nil, err
			}
			f.Stack = append(f.Stack, v)
		}
		return f, nil
	}

	inner, err := buildFrame(fs)
	if err != nil {
		return rt.Value{}, err
	}
	ret, err := vm.Interp.Resume(inner)
	retKind := fs.Method.Ret
	for s := fs.Outer; s != nil; s = s.Outer {
		if err != nil {
			// The resumed callee trapped instead of returning: unwind
			// into this frame exactly as the interpreter would, giving
			// its exception table a shot at the invoke's pc before
			// propagating further out.
			tr, ok := err.(*rt.Trap)
			if !ok {
				return rt.Value{}, err
			}
			h := rt.MatchHandler(s.Method, s.BCI, tr)
			if h == nil {
				continue
			}
			f, ferr := buildFrame(s)
			if ferr != nil {
				return rt.Value{}, ferr
			}
			f.Stack = append(f.Stack[:0], rt.HandlerValue(tr))
			f.PC = h.Handler
			ret, err = vm.Interp.Resume(f)
			retKind = s.Method.Ret
			continue
		}
		f, ferr := buildFrame(s)
		if ferr != nil {
			return rt.Value{}, ferr
		}
		// s.BCI is the invoke instruction whose callee just returned;
		// complete it: push the result and continue after the call.
		in := &s.Method.Code[s.BCI]
		if !in.Op.IsInvoke() {
			return rt.Value{}, fmt.Errorf("vm: deopt: outer state at %s:%d is not an invoke",
				s.Method.QualifiedName(), s.BCI)
		}
		if retKind != bc.KindVoid {
			f.Stack = append(f.Stack, ret)
		}
		f.PC = s.BCI + 1
		ret, err = vm.Interp.Resume(f)
		retKind = s.Method.Ret
	}
	if err != nil {
		return rt.Value{}, err
	}
	return ret, nil
}
