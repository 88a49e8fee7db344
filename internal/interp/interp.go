// Package interp implements the bytecode interpreter. It plays the role of
// the HotSpot interpreter in the paper: it executes any code without
// assumptions, collects the profiles (invocation, branch and back-edge
// counts) that drive the JIT policy, and is the target of
// deoptimization — compiled frames are translated into interpreter frames
// (materializing any virtual objects first) and execution resumes here.
package interp

import (
	"fmt"

	"pea/internal/bc"
	"pea/internal/rt"
)

// Frame is one interpreter activation.
type Frame struct {
	Method *bc.Method
	PC     int
	Locals []rt.Value
	Stack  []rt.Value // operand stack; top is the last element
}

// NewFrame creates a frame for invoking m with the given arguments
// (receiver first for instance methods).
func NewFrame(m *bc.Method, args []rt.Value) *Frame {
	f := &Frame{Method: m, Locals: make([]rt.Value, m.NumLocals())}
	copy(f.Locals, args) // the zero value is both 0 and null
	f.Stack = make([]rt.Value, 0, m.MaxStack)
	return f
}

func (f *Frame) push(v rt.Value) { f.Stack = append(f.Stack, v) }

func (f *Frame) pop() rt.Value {
	v := f.Stack[len(f.Stack)-1]
	f.Stack = f.Stack[:len(f.Stack)-1]
	return v
}

// Interp executes bytecode against an rt.Env.
type Interp struct {
	Env     *rt.Env
	Profile *Profile

	// Invoke, when non-nil, makes every call the interpreted code makes, in
	// place of Call; it may run the callee by other means (compiled code)
	// or call Call itself. This is how the VM mixes interpreted and
	// compiled frames.
	Invoke func(m *bc.Method, args []rt.Value) (rt.Value, error)

	// OSRHook, when non-nil, is consulted after each taken back edge with
	// the frame (whose PC is the loop-header bci just jumped to) and the
	// header's accumulated back-edge count. If it returns entered=true,
	// the rest of the frame was executed by other means (on-stack
	// replacement into compiled code) and ret is the frame's result.
	OSRHook func(f *Frame, count int64) (ret rt.Value, entered bool, err error)
}

// New creates an interpreter over env with a fresh profile.
func New(env *rt.Env) *Interp {
	return &Interp{Env: env, Profile: NewProfile(env.Program)}
}

// Run executes the program's entry point with no arguments.
func (it *Interp) Run() (rt.Value, error) {
	if it.Env.Program.Main == nil {
		return rt.Value{}, fmt.Errorf("interp: program has no entry point")
	}
	return it.Call(it.Env.Program.Main, nil)
}

// Call invokes m with args and runs it to completion in the interpreter
// (nested calls go through Invoke when it is set).
func (it *Interp) Call(m *bc.Method, args []rt.Value) (rt.Value, error) {
	if len(args) != m.NumArgs() {
		return rt.Value{}, fmt.Errorf("interp: %s called with %d args, want %d",
			m.QualifiedName(), len(args), m.NumArgs())
	}
	if it.Profile != nil {
		it.Profile.CountInvocation(m)
	}
	return it.Resume(NewFrame(m, args))
}

// Resume runs the given frame to completion. It is the entry point used by
// deoptimization: the frame may start at any pc with any consistent
// locals/stack contents. Each instruction is charged against the Env's step
// budget.
func (it *Interp) Resume(f *Frame) (rt.Value, error) {
	env := it.Env
	for {
		if env.MaxSteps > 0 {
			if err := env.ChargeSteps(1, f.Method); err != nil {
				return rt.Value{}, err
			}
		}
		done, ret, err := it.step(f)
		if err != nil {
			return rt.Value{}, err
		}
		if done {
			return ret, nil
		}
	}
}

// step executes one instruction of f. It returns done=true with the return
// value when the frame completes.
func (it *Interp) step(f *Frame) (done bool, ret rt.Value, err error) {
	m := f.Method
	pc := f.PC
	in := &m.Code[pc]

	// trap raises an intrinsic trap at the current pc: the nearest
	// matching exception-table entry of this frame receives control, or
	// the trap propagates to the caller as an error.
	trap := func(reason string) (bool, rt.Value, error) {
		return it.raise(f, rt.NewTrap(reason, m, pc))
	}

	switch in.Op {
	case bc.OpNop:
	case bc.OpConst:
		f.push(rt.IntValue(in.A))
	case bc.OpConstNull:
		f.push(rt.Null)
	case bc.OpLoad:
		f.push(f.Locals[in.A])
	case bc.OpStore:
		f.Locals[in.A] = f.pop()
	case bc.OpPop:
		f.pop()
	case bc.OpDup:
		f.push(f.Stack[len(f.Stack)-1])
	case bc.OpSwap:
		n := len(f.Stack)
		f.Stack[n-1], f.Stack[n-2] = f.Stack[n-2], f.Stack[n-1]
	case bc.OpAdd, bc.OpSub, bc.OpMul, bc.OpDiv, bc.OpRem,
		bc.OpAnd, bc.OpOr, bc.OpXor, bc.OpShl, bc.OpShr, bc.OpUShr:
		b, a := f.pop().I, f.pop().I
		r, why := rt.Arith(in.Op, a, b)
		if why != "" {
			return trap(why)
		}
		f.push(rt.IntValue(r))
	case bc.OpNeg:
		f.push(rt.IntValue(-f.pop().I))
	case bc.OpCmp:
		b, a := f.pop().I, f.pop().I
		f.push(rt.BoolValue(in.Cond.EvalInt(a, b)))
	case bc.OpGoto:
		f.PC = in.Target()
		if f.PC <= pc {
			return it.backEdge(f)
		}
		return false, rt.Value{}, nil
	case bc.OpIfCmp:
		b, a := f.pop().I, f.pop().I
		return it.branch(f, in, in.Cond.EvalInt(a, b))
	case bc.OpIf:
		a := f.pop().I
		return it.branch(f, in, in.Cond.EvalInt(a, 0))
	case bc.OpIfRef:
		b, a := f.pop(), f.pop()
		taken := a.Ref == b.Ref
		if in.Cond == bc.CondNE {
			taken = !taken
		}
		return it.branch(f, in, taken)
	case bc.OpIfNull:
		a := f.pop()
		taken := a.Ref == nil
		if in.Cond == bc.CondNE {
			taken = !taken
		}
		return it.branch(f, in, taken)
	case bc.OpNew:
		f.push(rt.RefValue(it.Env.AllocObject(in.Class)))
	case bc.OpNewArray:
		arr, why := it.Env.NewArray(in.Kind, f.pop().I)
		if why != "" {
			return trap(why)
		}
		f.push(rt.RefValue(arr))
	case bc.OpGetField:
		v, why := it.Env.LoadField(f.pop().Ref, in.Field.Offset, in.Field)
		if why != "" {
			return trap(why)
		}
		f.push(v)
	case bc.OpPutField:
		v := f.pop()
		if why := it.Env.StoreField(f.pop().Ref, in.Field.Offset, in.Field, v); why != "" {
			return trap(why)
		}
	case bc.OpGetStatic:
		f.push(it.Env.GetStatic(in.Field))
	case bc.OpPutStatic:
		it.Env.SetStatic(in.Field, f.pop())
	case bc.OpArrayLoad:
		idx := f.pop().I
		el, why := rt.Element(f.pop().Ref, idx, in.Op)
		if why != "" {
			return trap(why)
		}
		f.push(*el)
	case bc.OpArrayStore:
		v := f.pop()
		idx := f.pop().I
		el, why := rt.Element(f.pop().Ref, idx, in.Op)
		if why != "" {
			return trap(why)
		}
		*el = v
	case bc.OpArrayLen:
		n, why := rt.ArrayLength(f.pop().Ref)
		if why != "" {
			return trap(why)
		}
		f.push(rt.IntValue(n))
	case bc.OpInstanceOf:
		f.push(rt.BoolValue(rt.InstanceOf(f.pop().Ref, in.Class)))
	case bc.OpInvokeStatic, bc.OpInvokeDirect, bc.OpInvokeVirtual:
		if err := it.invoke(f, in); err != nil {
			// A trap unwinding out of the callee (or the null-receiver
			// trap raised here) can be caught by a handler covering the
			// call site; other errors (step budget, internal faults) are
			// not exceptions and keep propagating.
			if t, ok := err.(*rt.Trap); ok {
				return it.raise(f, t)
			}
			return false, rt.Value{}, err
		}
		return false, rt.Value{}, nil
	case bc.OpMonitorEnter:
		if why := it.Env.Lock(f.pop().Ref); why != "" {
			return trap(why)
		}
	case bc.OpMonitorExit:
		if why := it.Env.Unlock(f.pop().Ref); why != "" {
			return trap(why)
		}
	case bc.OpReturn:
		return true, rt.Value{}, nil
	case bc.OpReturnValue:
		return true, f.pop(), nil
	case bc.OpThrow:
		return it.raise(f, rt.Thrown(f.pop().Ref, m, pc))
	case bc.OpPrint:
		it.Env.Print(f.pop().I)
	case bc.OpRand:
		f.push(rt.IntValue(it.Env.Rand(in.A)))
	default:
		return trap(fmt.Sprintf("unknown opcode %d", in.Op))
	}
	f.PC = pc + 1
	return false, rt.Value{}, nil
}

// raise dispatches a trap raised while f.PC addresses the faulting
// instruction: the first matching exception-table entry covering f.PC
// receives control with the operand stack replaced by the exception value
// (the thrown object, or null for intrinsic traps under a catch-all
// entry); without a match the trap propagates to the caller as an error,
// preserving its origin identity.
func (it *Interp) raise(f *Frame, t *rt.Trap) (done bool, ret rt.Value, err error) {
	if h := rt.MatchHandler(f.Method, f.PC, t); h != nil {
		f.Stack = f.Stack[:0]
		f.push(rt.HandlerValue(t))
		f.PC = h.Handler
		return false, rt.Value{}, nil
	}
	return false, rt.Value{}, t
}

func (it *Interp) branch(f *Frame, in *bc.Instr, taken bool) (done bool, ret rt.Value, err error) {
	if it.Profile != nil {
		it.Profile.CountBranch(f.Method, f.PC, taken)
	}
	pc := f.PC
	if taken {
		f.PC = in.Target()
		if f.PC <= pc {
			return it.backEdge(f)
		}
	} else {
		f.PC++
	}
	return false, rt.Value{}, nil
}

// backEdge records a backward control transfer to the loop header at f.PC
// and offers the frame to the OSR hook. entered=true means the whole frame
// completed in compiled code and ret is its result.
func (it *Interp) backEdge(f *Frame) (done bool, ret rt.Value, err error) {
	if it.Profile == nil {
		return false, rt.Value{}, nil
	}
	count := it.Profile.CountBackEdge(f.Method, f.PC)
	if it.OSRHook == nil {
		return false, rt.Value{}, nil
	}
	ret, entered, err := it.OSRHook(f, count)
	if err != nil {
		return false, rt.Value{}, err
	}
	return entered, ret, nil
}

func (it *Interp) invoke(f *Frame, in *bc.Instr) error {
	callee := in.Method
	nargs := callee.NumArgs()
	args := make([]rt.Value, nargs)
	for i := nargs - 1; i >= 0; i-- {
		args[i] = f.pop()
	}
	if in.Op != bc.OpInvokeStatic {
		var why string
		if callee, why = rt.Receiver(args[0].Ref, callee, in.Op == bc.OpInvokeVirtual); why != "" {
			return rt.NewTrap(why, f.Method, f.PC)
		}
	}
	var ret rt.Value
	var err error
	if it.Invoke != nil {
		ret, err = it.Invoke(callee, args)
	} else {
		ret, err = it.Call(callee, args)
	}
	if err != nil {
		return err
	}
	if callee.Ret != bc.KindVoid {
		f.push(ret)
	}
	f.PC++
	return nil
}
