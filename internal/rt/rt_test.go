package rt

import (
	"testing"
	"testing/quick"

	"pea/internal/bc"
)

func prog(t *testing.T) *bc.Program {
	t.Helper()
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	box.Field("v", bc.KindInt)
	box.Field("r", bc.KindRef)
	box.Static("g", bc.KindRef)
	box.Static("n", bc.KindInt)
	c := a.Class("C", "")
	c.Method("m", nil, bc.KindVoid, true).Return()
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestValueBasics(t *testing.T) {
	i := IntValue(42)
	if i.IsRef() || i.IsNull() || i.Kind() != bc.KindInt || i.I != 42 {
		t.Fatalf("int value wrong: %+v", i)
	}
	if !Null.IsRef() || !Null.IsNull() || Null.Kind() != bc.KindRef {
		t.Fatalf("null wrong: %+v", Null)
	}
	if !BoolValue(true).Equal(IntValue(1)) || !BoolValue(false).Equal(IntValue(0)) {
		t.Fatal("bool encoding wrong")
	}
	if IntValue(0).Equal(Null) {
		t.Fatal("int 0 must differ from null")
	}
	if IntValue(5).String() != "5" || Null.String() != "null" {
		t.Fatal("String() wrong")
	}
}

func TestAllocationAccounting(t *testing.T) {
	p := prog(t)
	env := NewEnv(p, 1)
	box := p.ClassByName("Box")
	o := env.AllocObject(box)
	if o.IsArray() || len(o.Fields) != 2 {
		t.Fatalf("object wrong: %+v", o)
	}
	if !o.Fields[1].IsNull() || !o.Fields[0].Equal(IntValue(0)) {
		t.Fatal("fields not default-initialized")
	}
	arr := env.allocArray(bc.KindRef, 5)
	if !arr.IsArray() || arr.Len() != 5 || !arr.Fields[3].IsNull() {
		t.Fatalf("array wrong: %+v", arr)
	}
	if env.Stats.Allocations != 2 {
		t.Fatalf("allocations = %d", env.Stats.Allocations)
	}
	wantBytes := box.InstanceSize() + bc.ArraySize(5)
	if env.Stats.AllocatedBytes != wantBytes {
		t.Fatalf("bytes = %d, want %d", env.Stats.AllocatedBytes, wantBytes)
	}
	if o.Serial == arr.Serial {
		t.Fatal("serials must be unique")
	}
}

func TestMonitorSemantics(t *testing.T) {
	p := prog(t)
	env := NewEnv(p, 1)
	o := env.AllocObject(p.ClassByName("Box"))
	for i := 0; i < 2; i++ {
		if why := env.Lock(o); why != "" {
			t.Fatal(why)
		}
	}
	if o.LockDepth != 2 {
		t.Fatalf("lock depth = %d", o.LockDepth)
	}
	for i := 0; i < 2; i++ {
		if why := env.Unlock(o); why != "" {
			t.Fatal(why)
		}
	}
	if why := env.Unlock(o); why == "" {
		t.Fatal("unbalanced exit must fail")
	}
	if env.Stats.MonitorOps != 4 {
		t.Fatalf("monitor ops = %d (failed exit must not count)", env.Stats.MonitorOps)
	}
}

func TestStatics(t *testing.T) {
	p := prog(t)
	env := NewEnv(p, 1)
	g := p.ClassByName("Box").StaticByName("g")
	n := p.ClassByName("Box").StaticByName("n")
	if !env.GetStatic(g).IsNull() {
		t.Fatal("ref static must start null")
	}
	if env.GetStatic(n).I != 0 {
		t.Fatal("int static must start 0")
	}
	o := env.AllocObject(p.ClassByName("Box"))
	env.SetStatic(g, RefValue(o))
	if env.GetStatic(g).Ref != o {
		t.Fatal("static write lost")
	}
}

func TestRandProperties(t *testing.T) {
	p := prog(t)
	if err := quick.Check(func(seed uint64, mod uint16) bool {
		m := int64(mod%1000) + 1
		e1 := NewEnv(p, seed)
		e2 := NewEnv(p, seed)
		for i := 0; i < 20; i++ {
			r1, r2 := e1.Rand(m), e2.Rand(m)
			if r1 != r2 || r1 < 0 || r1 >= m {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Seed 0 must still work (xorshift has no zero state).
	e := NewEnv(p, 0)
	if r := e.Rand(100); r < 0 || r >= 100 {
		t.Fatalf("seed-0 rand = %d", r)
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Allocations: 10, AllocatedBytes: 100, MonitorOps: 5, Deopts: 2, Materializations: 1}
	b := Stats{Allocations: 4, AllocatedBytes: 40, MonitorOps: 1}
	d := a.Sub(b)
	if d.Allocations != 6 || d.AllocatedBytes != 60 || d.MonitorOps != 4 || d.Deopts != 2 {
		t.Fatalf("Sub wrong: %+v", d)
	}
}

func TestTrapError(t *testing.T) {
	p := prog(t)
	m := p.ClassByName("C").MethodByName("m")
	err := NewTrap("boom", m, 3)
	if got := err.Error(); got != "trap: boom at C.m pc=3" {
		t.Fatalf("trap format: %q", got)
	}
	if got := NewTrap("x", nil, 0).Error(); got != "trap: x" {
		t.Fatalf("trap format: %q", got)
	}
}

// TestMatchHandler pins the one shared handler-selection function: first
// covering entry wins, typed entries match subclasses but never intrinsic
// traps, catch-all entries match everything and bind null for intrinsics.
func TestMatchHandler(t *testing.T) {
	a := bc.NewAssembler()
	base := a.Class("Base", "")
	sub := a.Class("Sub", "Base")
	other := a.Class("Other", "")
	c := a.Class("C", "")
	ma := c.Method("m", nil, bc.KindInt, true)
	r := ma.NewLocal(bc.KindRef)
	ma.Label("s0")
	ma.Const(1).Pop()
	ma.Label("s1")
	ma.Const(2).Pop().Const(0).ReturnValue()
	ma.Label("h1").Store(r).Const(1).ReturnValue()
	ma.Label("h2").Store(r).Const(2).ReturnValue()
	ma.Label("h3").Store(r).Const(3).ReturnValue()
	ma.Exception("s0", "s1", "h1", sub.Ref())  // covers pc 0..1, typed Sub
	ma.Exception("s0", "s2", "h2", base.Ref()) // covers pc 0..3, typed Base
	ma.Label("s2")
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	m := p.ClassByName("C").MethodByName("m")
	bcls := p.ClassByName("Base")
	scls := p.ClassByName("Sub")
	ocls := p.ClassByName("Other")
	_ = base
	_ = other

	throw := func(cls *bc.Class) *Trap {
		return Thrown(&Object{Class: cls}, m, 0)
	}
	// Subclass object at a pc both entries cover: first entry wins.
	if h := MatchHandler(m, 0, throw(scls)); h == nil || h.Handler != m.ExceptionTable[0].Handler {
		t.Fatalf("Sub at pc 0: got %+v", h)
	}
	// Base object does not match the Sub entry; falls to the Base entry.
	if h := MatchHandler(m, 0, throw(bcls)); h == nil || h.Handler != m.ExceptionTable[1].Handler {
		t.Fatalf("Base at pc 0: got %+v", h)
	}
	// Past the first entry's range only the second covers.
	if h := MatchHandler(m, 2, throw(scls)); h == nil || h.Handler != m.ExceptionTable[1].Handler {
		t.Fatalf("Sub at pc 2: got %+v", h)
	}
	// Unrelated class: no typed entry matches.
	if h := MatchHandler(m, 0, throw(ocls)); h != nil {
		t.Fatalf("Other matched %+v", h)
	}
	// Intrinsic trap (nil Value): typed entries never match.
	if h := MatchHandler(m, 0, NewTrap("division by zero", m, 0)); h != nil {
		t.Fatalf("intrinsic matched typed entry %+v", h)
	}
	// Catch-all matches intrinsics and binds null.
	m.ExceptionTable = append(m.ExceptionTable, bc.ExceptionHandler{Start: 0, End: 4, Handler: m.ExceptionTable[1].Handler})
	tr := NewTrap("division by zero", m, 0)
	h := MatchHandler(m, 0, tr)
	if h == nil || h.Class != nil {
		t.Fatalf("catch-all did not match intrinsic: %+v", h)
	}
	if v := HandlerValue(tr); !v.IsNull() {
		t.Fatalf("intrinsic handler value = %+v, want null", v)
	}
	if v := HandlerValue(throw(scls)); v.IsNull() || v.Ref.Class != scls {
		t.Fatalf("guest handler value = %+v", v)
	}
	// Out-of-range pc: nothing covers.
	if h := MatchHandler(m, 99, throw(scls)); h != nil {
		t.Fatalf("uncovered pc matched %+v", h)
	}
}

// TestSmallObjectsAreOneAllocation: up to four slots share the header's Go
// allocation, and the embedded storage behaves like any Fields slice — right
// length, default-initialized, writable, independent between objects.
func TestSmallObjectsAreOneAllocation(t *testing.T) {
	env := NewEnv(prog(t), 1)
	var keep *Object
	for n := int64(0); n <= 6; n++ {
		want := 1.0
		if n > 4 {
			want = 2 // header + separate backing array
		}
		if got := testing.AllocsPerRun(50, func() { keep = env.allocArray(bc.KindInt, n) }); got != want {
			t.Errorf("AllocArray(int, %d) makes %v Go allocations, want %v", n, got, want)
		}
		a, b := env.allocArray(bc.KindRef, n), env.allocArray(bc.KindRef, n)
		if a.Len() != int(n) || cap(a.Fields) != int(n) {
			t.Fatalf("array of %d has len %d cap %d", n, a.Len(), cap(a.Fields))
		}
		for i := range a.Fields {
			if !a.Fields[i].IsNull() {
				t.Fatalf("array of %d: element %d is %v, want null", n, i, a.Fields[i])
			}
			a.Fields[i] = RefValue(b)
			if !b.Fields[i].IsNull() {
				t.Fatalf("array of %d: write to one object showed in another", n)
			}
		}
		if a.Serial == b.Serial || !a.IsArray() {
			t.Fatalf("array of %d: header wrong: %+v", n, a)
		}
	}
	box := env.Program.ClassByName("Box")
	if got := testing.AllocsPerRun(50, func() { keep = env.AllocObject(box) }); got != 1 {
		t.Errorf("AllocObject(Box) makes %v Go allocations, want 1", got)
	}
	_ = keep
}
