// Package rt is the guest runtime every engine shares. rt.go holds the data
// model: untagged values, heap objects and arrays, static fields, the
// deterministic PRNG, traps and handler matching, and the allocation/lock
// counters that the evaluation harness reports (the paper's "MB / iteration",
// "MAllocs / iteration" and lock-operation metrics). ops.go holds the
// guest-operation kernel: the one definition of what each faulting or counted
// operation does, which the interpreter, both execution backends and the
// deopt runtime dispatch to.
package rt

import (
	"fmt"

	"pea/internal/bc"
)

// Value is a bytecode-level value: an integer in I or a reference in Ref.
// Which of the two a value is follows from the static kind of whatever holds
// it (an IR node, a field, a local), so the value carries no tag: the zero
// Value is both the integer 0 and the null reference.
type Value struct {
	I   int64
	Ref *Object
}

// IntValue returns an integer value.
func IntValue(i int64) Value { return Value{I: i} }

// BoolValue returns 1 for true and 0 for false as an integer value.
func BoolValue(b bool) Value {
	if b {
		return Value{I: 1}
	}
	return Value{I: 0}
}

// RefValue returns a reference value (obj may be nil for null).
func RefValue(obj *Object) Value { return Value{Ref: obj} }

// Null is the null reference: the zero Value.
var Null = Value{}

// IsNull reports whether a reference value is null.
func (v Value) IsNull() bool { return v.Ref == nil }

// Equal reports bit-level equality of both words (used by differential
// tests).
func (v Value) Equal(o Value) bool { return v.I == o.I && v.Ref == o.Ref }

// String renders the value for diagnostics: the object if it holds one,
// otherwise the integer (null renders as 0).
func (v Value) String() string {
	if v.Ref != nil {
		return v.Ref.String()
	}
	return fmt.Sprintf("%d", v.I)
}

// Object is a heap object or array. Class is nil for arrays, in which case
// ElemKind and the Fields slice (reused as element storage) describe the
// array.
type Object struct {
	Class    *bc.Class
	ElemKind bc.Kind // element kind if this is an array
	Fields   []Value // instance fields by offset, or array elements
	// Serial is a unique allocation number, for deterministic diagnostics.
	Serial int64
	// LockDepth is the recursive monitor hold count. The VM is
	// single-threaded, so a monitor is a counter: the paper's lock
	// elision removes the counter updates, which we count as the
	// "monitor operations" metric.
	LockDepth int
}

// IsArray reports whether the object is an array.
func (o *Object) IsArray() bool { return o.Class == nil }

// Len returns the array length (panics for non-arrays).
func (o *Object) Len() int {
	if !o.IsArray() {
		panic("rt: Len on non-array")
	}
	return len(o.Fields)
}

// String renders the object's identity for diagnostics.
func (o *Object) String() string {
	if o.IsArray() {
		return fmt.Sprintf("%s[%d]#%d", o.ElemKind, len(o.Fields), o.Serial)
	}
	return fmt.Sprintf("%s#%d", o.Class.Name, o.Serial)
}

// Stats aggregates the dynamic counters the paper's Table 1 reports.
type Stats struct {
	// Allocations is the number of dynamic allocations performed.
	Allocations int64
	// AllocatedBytes is the total heap bytes charged for allocations
	// (JVM-like layout: 16-byte object header + 8 bytes/field,
	// 24-byte array header + 8 bytes/element).
	AllocatedBytes int64
	// MonitorOps counts monitor enter and exit operations executed.
	MonitorOps int64
	// FieldLoads / FieldStores count instance field accesses executed.
	FieldLoads  int64
	FieldStores int64
	// Deopts counts deoptimizations taken from compiled code.
	Deopts int64
	// Materializations counts virtual objects allocated lazily by
	// compiled code (PEA materialization sites executed).
	Materializations int64
}

// Sub returns s - o, counter-wise.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Allocations:      s.Allocations - o.Allocations,
		AllocatedBytes:   s.AllocatedBytes - o.AllocatedBytes,
		MonitorOps:       s.MonitorOps - o.MonitorOps,
		FieldLoads:       s.FieldLoads - o.FieldLoads,
		FieldStores:      s.FieldStores - o.FieldStores,
		Deopts:           s.Deopts - o.Deopts,
		Materializations: s.Materializations - o.Materializations,
	}
}

// Env is the mutable machine state shared by interpreted and compiled code:
// the heap counters, static fields, PRNG, program output and step budget. A
// single Env is threaded through one program execution.
type Env struct {
	Program *bc.Program
	Stats   Stats

	// MaxSteps bounds the steps the interpreter and every execution backend
	// run on this environment, together (0 = unbounded): the interpreter
	// charges one per instruction, the oracle one per node, the closure
	// backend one block's node count per block entered. Exceeding it is an
	// error. Set it before the first step.
	MaxSteps int64
	steps    int64

	// statics[classID][offset] holds static field values.
	statics [][]Value

	// Output collects values printed by OpPrint.
	Output []int64

	// rngState is the xorshift64* PRNG state; deterministic so that all
	// compiler configurations see identical program behaviour.
	rngState uint64

	serial int64
}

// NewEnv creates an execution environment for the program with the given
// PRNG seed (0 is replaced by 1, as xorshift has no zero state).
func NewEnv(p *bc.Program, seed uint64) *Env {
	if seed == 0 {
		seed = 1
	}
	e := &Env{Program: p, rngState: seed}
	e.statics = make([][]Value, len(p.Classes))
	for _, c := range p.Classes {
		e.statics[c.ID] = make([]Value, len(c.Statics)) // zero is 0 and null
	}
	return e
}

// ChargeSteps charges n steps of m against MaxSteps and returns an error
// once the budget is exhausted; with MaxSteps <= 0 it never fails. Hot
// callers test MaxSteps > 0 themselves and call it only then.
func (e *Env) ChargeSteps(n int64, m *bc.Method) error {
	if e.MaxSteps <= 0 {
		return nil
	}
	e.steps += n
	if e.steps > e.MaxSteps {
		return fmt.Errorf("rt: step budget of %d exhausted in %s", e.MaxSteps, m.QualifiedName())
	}
	return nil
}

// Rand returns the next deterministic pseudo-random value; if mod > 0 the
// result is reduced to [0, mod).
func (e *Env) Rand(mod int64) int64 {
	// xorshift64* (Vigna): good enough distribution, fully deterministic.
	x := e.rngState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	e.rngState = x
	r := int64((x * 2685821657736338717) >> 1)
	if mod > 0 {
		return r % mod
	}
	return r
}

// GetStatic reads a static field.
func (e *Env) GetStatic(f *bc.Field) Value { return e.statics[f.Class.ID][f.Offset] }

// SetStatic writes a static field.
func (e *Env) SetStatic(f *bc.Field, v Value) { e.statics[f.Class.ID][f.Offset] = v }

// Small objects embed their slot storage: one Go allocation holds the header
// and the Fields backing array, instead of one each. The combined object never
// rounds up to more bytes than the two pieces did (80/96/112/128 against
// 64 + 16/32/48/64), so this halves the mallocgc calls and the objects the
// collector marks at no cost in memory.
type (
	object1 struct {
		Object
		slots [1]Value
	}
	object2 struct {
		Object
		slots [2]Value
	}
	object3 struct {
		Object
		slots [3]Value
	}
	object4 struct {
		Object
		slots [4]Value
	}
)

// newObject returns an Object with n zeroed slots. Up to four slots share
// the header's allocation (the returned interior pointer keeps the whole
// struct alive); larger objects and arrays get a separate backing array.
func newObject(n int64) *Object {
	switch n {
	case 1:
		o := new(object1)
		o.Fields = o.slots[:]
		return &o.Object
	case 2:
		o := new(object2)
		o.Fields = o.slots[:]
		return &o.Object
	case 3:
		o := new(object3)
		o.Fields = o.slots[:]
		return &o.Object
	case 4:
		o := new(object4)
		o.Fields = o.slots[:]
		return &o.Object
	}
	return &Object{Fields: make([]Value, n)}
}

// AllocObject allocates a class instance with zeroed fields and charges the
// allocation counters.
func (e *Env) AllocObject(c *bc.Class) *Object {
	e.serial++
	o := newObject(int64(c.NumFields()))
	o.Class, o.Serial = c, e.serial
	e.Stats.Allocations++
	e.Stats.AllocatedBytes += c.InstanceSize()
	return o
}

// allocArray allocates an array of n >= 0 elements and charges the counters
// (NewArray is the guest operation, with the size check).
func (e *Env) allocArray(kind bc.Kind, n int64) *Object {
	e.serial++
	o := newObject(n)
	o.ElemKind, o.Serial = kind, e.serial
	e.Stats.Allocations++
	e.Stats.AllocatedBytes += bc.ArraySize(n)
	return o
}

// Print appends v to the program output.
func (e *Env) Print(v int64) { e.Output = append(e.Output, v) }

// Trap is a runtime exception raised by executing code: an intrinsic trap
// (null dereference, division by zero, array bounds, negative array size,
// null throw) or a guest `throw`. A trap unwinds until an exception-table
// entry matches it; without one it aborts execution as an error.
//
// Reason, Method and PC are the trap's canonical identity — the reason
// string, the bytecode method the trapping instruction belongs to (the
// innermost method when the trap happens in inlined code), and its pc
// there. The reason comes from the kernel (ops.go), so every engine
// (interpreter, oracle, closure JIT) reports the same one for the same guest
// fault; method and pc are the engine's to supply, and differential
// harnesses compare the whole triple.
type Trap struct {
	Reason string
	Method *bc.Method
	PC     int
	// Value is the thrown object for guest `throw` (never nil there:
	// throwing null raises an intrinsic "null throw" trap instead).
	// Intrinsic traps carry a nil Value; typed handlers never match them
	// and catch-all handlers bind null.
	Value *Object
}

// Error implements the error interface.
func (t *Trap) Error() string {
	if t.Method != nil {
		return fmt.Sprintf("trap: %s at %s pc=%d", t.Reason, t.Method.QualifiedName(), t.PC)
	}
	return "trap: " + t.Reason
}

// NewTrap builds an intrinsic trap error.
func NewTrap(reason string, m *bc.Method, pc int) *Trap {
	return &Trap{Reason: reason, Method: m, PC: pc}
}

// MatchHandler returns the first exception-table entry of m that covers pc
// and matches t — typed entries match guest exceptions of a matching
// class, catch-all entries (nil Class) match everything including
// intrinsic traps — or nil when the trap keeps unwinding. Every engine
// dispatches through this one function so handler selection can never
// diverge between them.
func MatchHandler(m *bc.Method, pc int, t *Trap) *bc.ExceptionHandler {
	for i := range m.ExceptionTable {
		h := &m.ExceptionTable[i]
		if !h.Covers(pc) {
			continue
		}
		if h.Class == nil || (t.Value != nil && t.Value.Class.IsSubclassOf(h.Class)) {
			return h
		}
	}
	return nil
}

// HandlerValue returns the value a handler binds for t: the thrown object,
// or null for intrinsic traps reaching a catch-all entry.
func HandlerValue(t *Trap) Value {
	if t.Value != nil {
		return RefValue(t.Value)
	}
	return Null
}
