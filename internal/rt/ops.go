package rt

import (
	"strconv"

	"pea/internal/bc"
)

// The guest-operation kernel: what each faulting or counted bytecode
// operation does, written once. The interpreter, the oracle, the closure
// backend and the deopt runtime move operands in and results out and call
// these; none of them decides a null check, a bounds check, a shift mask, a
// counter bump or the text of a trap reason.
//
// An operation that can fault returns its result plus the canonical trap
// reason, "" meaning no fault. The engine that called it supplies the method
// and pc (NewTrap). A faulting operation has no effect: it bumps no counter
// and writes nothing.
//
// Everything a lowered closure runs often — Div, Rem, the shifts, LoadField,
// StoreField, ArrayLength, InstanceOf, Lock, Unlock, Receiver — fits the Go
// inliner's budget, so the closure pays for the checks and nothing else (CI
// checks -gcflags=-m). Two things keep it that way: a reason is a constant, or
// is built by a separate function called only on the fault path, and a field
// access takes its slot offset as a scalar beside the *bc.Field, which is read
// only to name the field in a trap (loading f.Offset on every access measured
// +5 % on steady-pea op_ms). Element, NewArray, Materialize and Arith are
// ordinary calls.

// Reasons that name nothing but the operation.
const (
	divByZero        = "division by zero"
	nullArrayLen     = "null dereference in arraylen"
	nullMonitorEnter = "null dereference in monitorenter"
	nullMonitorExit  = "null dereference in monitorexit"
	nullThrow        = "null throw"
)

// Arith evaluates the binary integer opcode op with the JVM's semantics:
// two's-complement wrap-around, shift counts masked to six bits, truncated
// division, MinInt64 / -1 == MinInt64 and MinInt64 % -1 == 0 without a trap.
// The compiler's constant folder evaluates through it too, so folded and
// executed arithmetic cannot differ.
func Arith(op bc.Op, a, b int64) (int64, string) {
	// oplint:ignore — defined only for the binary arithmetic subset;
	// anything else is rejected by the default below.
	switch op {
	case bc.OpAdd:
		return a + b, ""
	case bc.OpSub:
		return a - b, ""
	case bc.OpMul:
		return a * b, ""
	case bc.OpDiv:
		return Div(a, b)
	case bc.OpRem:
		return Rem(a, b)
	case bc.OpAnd:
		return a & b, ""
	case bc.OpOr:
		return a | b, ""
	case bc.OpXor:
		return a ^ b, ""
	case bc.OpShl:
		return Shl(a, b), ""
	case bc.OpShr:
		return Shr(a, b), ""
	case bc.OpUShr:
		return UShr(a, b), ""
	default:
		return 0, "not an arithmetic op: " + op.String()
	}
}

// Div is a / b, trapping on a zero divisor.
func Div(a, b int64) (int64, string) {
	if b == 0 {
		return 0, divByZero
	}
	return a / b, ""
}

// Rem is a % b, trapping on a zero divisor.
func Rem(a, b int64) (int64, string) {
	if b == 0 {
		return 0, divByZero
	}
	return a % b, ""
}

// Shl, Shr and UShr shift a by the low six bits of b.
func Shl(a, b int64) int64  { return a << uint64(b&63) }
func Shr(a, b int64) int64  { return a >> uint64(b&63) }
func UShr(a, b int64) int64 { return int64(uint64(a) >> uint64(b&63)) }

// nullDeref is the reason for applying op to the null reference.
func nullDeref(op bc.Op) string { return "null dereference in " + op.String() }

//go:noinline
func nullField(op bc.Op, f *bc.Field) string { return nullDeref(op) + " " + f.QualifiedName() }

// LoadField reads the instance field f of o, which lives in slot off
// (f.Offset, passed as a scalar: see the package note above).
func (e *Env) LoadField(o *Object, off int, f *bc.Field) (Value, string) {
	if o == nil {
		return Value{}, nullField(bc.OpGetField, f)
	}
	e.Stats.FieldLoads++
	return o.Fields[off], ""
}

// StoreField writes v to the instance field f of o, slot off.
func (e *Env) StoreField(o *Object, off int, f *bc.Field, v Value) string {
	if o == nil {
		return nullField(bc.OpPutField, f)
	}
	e.Stats.FieldStores++
	o.Fields[off] = v
	return ""
}

func indexOutOfRange(idx int64, n int) string {
	return "array index " + strconv.FormatInt(idx, 10) + " out of range [0," + strconv.Itoa(n) + ")"
}

// Element returns the address of arr[idx] for op (bc.OpArrayLoad or
// bc.OpArrayStore, which only names the access in the null trap) after the
// null and bounds checks both indexed operations share.
func Element(arr *Object, idx int64, op bc.Op) (*Value, string) {
	if arr == nil {
		return nil, nullDeref(op)
	}
	if n := arr.Len(); idx < 0 || idx >= int64(n) {
		return nil, indexOutOfRange(idx, n)
	}
	return &arr.Fields[idx], ""
}

// ArrayLength is the length of arr.
func ArrayLength(arr *Object) (int64, string) {
	if arr == nil {
		return 0, nullArrayLen
	}
	return int64(arr.Len()), ""
}

func negativeSize(n int64) string { return "negative array size " + strconv.FormatInt(n, 10) }

// NewArray allocates an array of n elements of the given kind.
func (e *Env) NewArray(kind bc.Kind, n int64) (*Object, string) {
	if n < 0 {
		return nil, negativeSize(n)
	}
	return e.allocArray(kind, n), ""
}

// InstanceOf reports whether o is a non-null instance of cls or a subclass;
// arrays are instances of no class.
func InstanceOf(o *Object, cls *bc.Class) bool {
	return o != nil && !o.IsArray() && o.Class.IsSubclassOf(cls)
}

// Lock acquires o's monitor (recursively) and counts the operation.
func (e *Env) Lock(o *Object) string {
	if o == nil {
		return nullMonitorEnter
	}
	o.LockDepth++
	e.Stats.MonitorOps++
	return ""
}

// Unlock releases o's monitor and counts the operation; releasing a monitor
// that is not held is a trap.
func (e *Env) Unlock(o *Object) (why string) {
	if o == nil || o.LockDepth <= 0 {
		return cannotUnlock(o)
	}
	o.LockDepth--
	e.Stats.MonitorOps++
	return // bare, and both faults behind one call: one node more and Unlock stops inlining
}

// cannotUnlock names an unheld monitor's object by class only, never by
// allocation serial: PEA removes earlier allocations, so serials differ
// between tiers and a reason must not (see Thrown).
//
//go:noinline
func cannotUnlock(o *Object) string {
	switch {
	case o == nil:
		return nullMonitorExit
	case o.IsArray():
		return "monitor exit on unlocked array"
	}
	return "monitor exit on unlocked " + o.Class.Name
}

// Receiver checks the receiver of an instance call to callee and returns the
// method that runs: recv's vtable entry for a virtual call, callee itself for
// a direct one. Static calls have no receiver and do not come here.
func Receiver(recv *Object, callee *bc.Method, virtual bool) (*bc.Method, string) {
	if recv == nil {
		return nil, nullReceiver(callee)
	}
	if virtual {
		return recv.Class.VTable[callee.VSlot], ""
	}
	return callee, ""
}

//go:noinline
func nullReceiver(callee *bc.Method) string {
	return "null receiver calling " + callee.QualifiedName()
}

// Thrown builds the trap a guest `throw` of o raises at (m, pc): the
// intrinsic "null throw" for the null reference, otherwise a guest exception
// carrying o. The reason is derived from the class name only — never the
// allocation serial — so an uncaught exception reads identically whether the
// object was heap allocated or rematerialized from a scalar-replaced frame
// state.
func Thrown(o *Object, m *bc.Method, pc int) *Trap {
	if o == nil {
		return NewTrap(nullThrow, m, pc)
	}
	return &Trap{Reason: "uncaught exception " + o.Class.Name, Method: m, PC: pc, Value: o}
}

// Materialize allocates the object (cls != nil) or the array of n elements of
// kind elem that escape analysis had removed, re-enters the locks monitors
// that were elided while it was virtual, and counts the materialization. The
// caller fills Fields: only it knows where the values live.
func (e *Env) Materialize(cls *bc.Class, elem bc.Kind, n int64, locks int) *Object {
	var o *Object
	if cls != nil {
		o = e.AllocObject(cls)
	} else {
		o = e.allocArray(elem, n)
	}
	o.LockDepth += locks
	e.Stats.MonitorOps += int64(locks)
	e.Stats.Materializations++
	return o
}
