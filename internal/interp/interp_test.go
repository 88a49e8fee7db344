package interp

import (
	"strings"
	"testing"
	"testing/quick"

	"pea/internal/bc"
	"pea/internal/rt"
)

// compile assembles a single static method "C.m" with the given body and
// returns the program.
func compile(t *testing.T, params []bc.Kind, ret bc.Kind, body func(m *bc.MethodAsm, ca *bc.ClassAsm)) *bc.Program {
	t.Helper()
	a := bc.NewAssembler()
	ca := a.Class("C", "")
	m := ca.Method("m", params, ret, true)
	body(m, ca)
	p, err := a.Finish("")
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p
}

// run invokes C.m with the given int arguments.
func run(t *testing.T, p *bc.Program, args ...int64) (rt.Value, *rt.Env, error) {
	t.Helper()
	env := rt.NewEnv(p, 1)
	it := New(env)
	it.Env.MaxSteps = 1_000_000
	vals := make([]rt.Value, len(args))
	for i, a := range args {
		vals[i] = rt.IntValue(a)
	}
	v, err := it.Call(p.ClassByName("C").MethodByName("m"), vals)
	return v, env, err
}

func TestArithmetic(t *testing.T) {
	cases := []struct {
		op   bc.Op
		a, b int64
		want int64
	}{
		{bc.OpAdd, 3, 4, 7},
		{bc.OpSub, 3, 4, -1},
		{bc.OpMul, 3, 4, 12},
		{bc.OpDiv, 13, 4, 3},
		{bc.OpDiv, -13, 4, -3},
		{bc.OpRem, 13, 4, 1},
		{bc.OpRem, -13, 4, -1},
		{bc.OpAnd, 0b1100, 0b1010, 0b1000},
		{bc.OpOr, 0b1100, 0b1010, 0b1110},
		{bc.OpXor, 0b1100, 0b1010, 0b0110},
		{bc.OpShl, 1, 4, 16},
		{bc.OpShr, -16, 2, -4},
		{bc.OpUShr, -1, 60, 15},
	}
	for _, tc := range cases {
		p := compile(t, []bc.Kind{bc.KindInt, bc.KindInt}, bc.KindInt,
			func(m *bc.MethodAsm, _ *bc.ClassAsm) {
				m.Load(0).Load(1).Arith(tc.op).ReturnValue()
			})
		got, _, err := run(t, p, tc.a, tc.b)
		if err != nil {
			t.Fatalf("%s(%d,%d): %v", tc.op, tc.a, tc.b, err)
		}
		if got.I != tc.want {
			t.Errorf("%s(%d,%d) = %d, want %d", tc.op, tc.a, tc.b, got.I, tc.want)
		}
	}
}

func TestDivisionByZeroTraps(t *testing.T) {
	for _, op := range []bc.Op{bc.OpDiv, bc.OpRem} {
		p := compile(t, []bc.Kind{bc.KindInt}, bc.KindInt,
			func(m *bc.MethodAsm, _ *bc.ClassAsm) {
				m.Load(0).Const(0).Arith(op).ReturnValue()
			})
		_, _, err := run(t, p, 10)
		if err == nil || !strings.Contains(err.Error(), "division by zero") {
			t.Fatalf("%s by zero: got %v, want trap", op, err)
		}
	}
}

func TestLoopSum(t *testing.T) {
	// for (i=0; i<n; i++) s += i; return s
	p := compile(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, _ *bc.ClassAsm) {
			i := m.NewLocal(bc.KindInt)
			s := m.NewLocal(bc.KindInt)
			m.Const(0).Store(i).Const(0).Store(s)
			m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
			m.Load(s).Load(i).Add().Store(s)
			m.Load(i).Const(1).Add().Store(i)
			m.Goto("head")
			m.Label("done").Load(s).ReturnValue()
		})
	got, _, err := run(t, p, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 4950 {
		t.Fatalf("sum(100) = %d, want 4950", got.I)
	}
}

func TestFieldsAndAllocationCounters(t *testing.T) {
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	v := box.Field("v", bc.KindInt)
	c := a.Class("C", "")
	m := c.Method("m", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	l := m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(l)
	m.Load(l).Load(0).PutField(v)
	m.Load(l).GetField(v).Const(1).Add().ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	got, env, err := run(t, p, 41)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 42 {
		t.Fatalf("got %d, want 42", got.I)
	}
	if env.Stats.Allocations != 1 {
		t.Fatalf("allocations = %d, want 1", env.Stats.Allocations)
	}
	if env.Stats.AllocatedBytes != 16+8 {
		t.Fatalf("bytes = %d, want 24", env.Stats.AllocatedBytes)
	}
	if env.Stats.FieldLoads != 1 || env.Stats.FieldStores != 1 {
		t.Fatalf("field counters = %d/%d, want 1/1", env.Stats.FieldLoads, env.Stats.FieldStores)
	}
}

func TestArrays(t *testing.T) {
	p := compile(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, _ *bc.ClassAsm) {
			arr := m.NewLocal(bc.KindRef)
			i := m.NewLocal(bc.KindInt)
			s := m.NewLocal(bc.KindInt)
			m.Load(0).NewArray(bc.KindInt).Store(arr)
			// arr[i] = i*2
			m.Const(0).Store(i)
			m.Label("fill").Load(i).Load(0).IfCmp(bc.CondGE, "sum")
			m.Load(arr).Load(i).Load(i).Const(2).Mul().ArrayStore(bc.KindInt)
			m.Load(i).Const(1).Add().Store(i)
			m.Goto("fill")
			// s = sum(arr)
			m.Label("sum").Const(0).Store(i).Const(0).Store(s)
			m.Label("head").Load(i).Load(arr).ArrayLen().IfCmp(bc.CondGE, "done")
			m.Load(s).Load(arr).Load(i).ArrayLoad(bc.KindInt).Add().Store(s)
			m.Load(i).Const(1).Add().Store(i)
			m.Goto("head")
			m.Label("done").Load(s).ReturnValue()
		})
	got, env, err := run(t, p, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 90 {
		t.Fatalf("got %d, want 90", got.I)
	}
	if env.Stats.AllocatedBytes != 24+80 {
		t.Fatalf("bytes = %d, want 104", env.Stats.AllocatedBytes)
	}
}

func TestArrayBoundsTrap(t *testing.T) {
	p := compile(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, _ *bc.ClassAsm) {
			m.Const(3).NewArray(bc.KindInt).Load(0).ArrayLoad(bc.KindInt).ReturnValue()
		})
	for _, idx := range []int64{-1, 3, 100} {
		_, _, err := run(t, p, idx)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Fatalf("index %d: got %v, want bounds trap", idx, err)
		}
	}
	if got, _, err := run(t, p, 2); err != nil || got.I != 0 {
		t.Fatalf("in-bounds read: %v %v", got, err)
	}
}

func TestNullDereferenceTraps(t *testing.T) {
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	v := box.Field("v", bc.KindInt)
	c := a.Class("C", "")
	m := c.Method("m", nil, bc.KindInt, true)
	m.ConstNull().GetField(v).ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err2 := run(t, p)
	if err2 == nil || !strings.Contains(err2.Error(), "null dereference") {
		t.Fatalf("got %v, want null dereference trap", err2)
	}
}

func TestVirtualDispatch(t *testing.T) {
	a := bc.NewAssembler()
	base := a.Class("Base", "")
	bget := base.Method("get", nil, bc.KindInt, false)
	bget.Const(1).ReturnValue()
	sub := a.Class("Sub", "Base")
	sub.Method("get", nil, bc.KindInt, false).Const(2).ReturnValue()

	c := a.Class("C", "")
	m := c.Method("m", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	l := m.NewLocal(bc.KindRef)
	m.Load(0).If(bc.CondNE, "mksub")
	m.New(base.Ref()).Store(l).Goto("call")
	m.Label("mksub").New(sub.Ref()).Store(l)
	m.Label("call").Load(l).InvokeVirtual(bget.Ref()).ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	if got, _, _ := run(t, p, 0); got.I != 1 {
		t.Fatalf("Base.get via vtable = %d, want 1", got.I)
	}
	if got, _, _ := run(t, p, 1); got.I != 2 {
		t.Fatalf("Sub.get via vtable = %d, want 2", got.I)
	}
}

func TestMonitorsAndCounters(t *testing.T) {
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	c := a.Class("C", "")
	m := c.Method("m", nil, bc.KindInt, true)
	l := m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(l)
	m.Load(l).MonitorEnter()
	m.Load(l).MonitorEnter() // recursive
	m.Load(l).MonitorExit()
	m.Load(l).MonitorExit()
	m.Const(0).ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	_, env, err2 := run(t, p)
	if err2 != nil {
		t.Fatal(err2)
	}
	if env.Stats.MonitorOps != 4 {
		t.Fatalf("monitor ops = %d, want 4", env.Stats.MonitorOps)
	}
}

func TestUnbalancedMonitorExitTraps(t *testing.T) {
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	c := a.Class("C", "")
	m := c.Method("m", nil, bc.KindInt, true)
	l := m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(l)
	m.Load(l).MonitorExit()
	m.Const(0).ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err2 := run(t, p)
	if err2 == nil || !strings.Contains(err2.Error(), "monitor exit on unlocked") {
		t.Fatalf("got %v, want unlock trap", err2)
	}
}

func TestStatics(t *testing.T) {
	a := bc.NewAssembler()
	c := a.Class("C", "")
	g := c.Static("g", bc.KindInt)
	m := c.Method("m", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	m.Load(0).PutStatic(g)
	m.GetStatic(g).Const(10).Mul().ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	got, _, err2 := run(t, p, 7)
	if err2 != nil {
		t.Fatal(err2)
	}
	if got.I != 70 {
		t.Fatalf("got %d, want 70", got.I)
	}
}

func TestInstanceOf(t *testing.T) {
	a := bc.NewAssembler()
	base := a.Class("Base", "")
	sub := a.Class("Sub", "Base")
	other := a.Class("Other", "")
	c := a.Class("C", "")
	m := c.Method("m", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	l := m.NewLocal(bc.KindRef)
	m.Load(0).Const(0).IfCmp(bc.CondEQ, "null")
	m.Load(0).Const(1).IfCmp(bc.CondEQ, "sub")
	m.Load(0).Const(2).IfCmp(bc.CondEQ, "other")
	m.New(base.Ref()).Store(l).Goto("test")
	m.Label("null").ConstNull().Store(l).Goto("test")
	m.Label("sub").New(sub.Ref()).Store(l).Goto("test")
	m.Label("other").New(other.Ref()).Store(l).Goto("test")
	m.Label("test").Load(l).InstanceOf(base.Ref()).ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	want := map[int64]int64{0: 0, 1: 1, 2: 0, 3: 1}
	for arg, exp := range want {
		got, _, err := run(t, p, arg)
		if err != nil {
			t.Fatal(err)
		}
		if got.I != exp {
			t.Fatalf("instanceof case %d = %d, want %d", arg, got.I, exp)
		}
	}
}

func TestRandDeterminism(t *testing.T) {
	p := compile(t, nil, bc.KindInt,
		func(m *bc.MethodAsm, _ *bc.ClassAsm) {
			m.Rand(1000).Rand(1000).Add().ReturnValue()
		})
	v1, _, err1 := run(t, p)
	v2, _, err2 := run(t, p)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !v1.Equal(v2) {
		t.Fatalf("same seed produced %v and %v", v1, v2)
	}
	if v1.I < 0 || v1.I >= 2000 {
		t.Fatalf("rand out of range: %d", v1.I)
	}
}

func TestRandRange(t *testing.T) {
	err := quick.Check(func(mod uint16) bool {
		m := int64(mod%997) + 1
		env := rt.NewEnv(&bc.Program{}, uint64(mod)+7)
		for i := 0; i < 50; i++ {
			r := env.Rand(m)
			if r < 0 || r >= m {
				return false
			}
		}
		return true
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPrintOutput(t *testing.T) {
	p := compile(t, nil, bc.KindVoid,
		func(m *bc.MethodAsm, _ *bc.ClassAsm) {
			m.Const(1).Print().Const(2).Print().Const(3).Print().Return()
		})
	_, env, err := run(t, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(env.Output) != 3 || env.Output[0] != 1 || env.Output[2] != 3 {
		t.Fatalf("output = %v", env.Output)
	}
}

func TestStepBudget(t *testing.T) {
	p := compile(t, nil, bc.KindVoid,
		func(m *bc.MethodAsm, _ *bc.ClassAsm) {
			m.Label("spin").Goto("spin")
		})
	env := rt.NewEnv(p, 1)
	it := New(env)
	it.Env.MaxSteps = 1000
	_, err := it.Call(p.ClassByName("C").MethodByName("m"), nil)
	if err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Fatalf("got %v, want step budget error", err)
	}
}

func TestProfileCollection(t *testing.T) {
	a := bc.NewAssembler()
	c := a.Class("C", "")
	callee := c.Method("callee", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	callee.Load(0).Const(1).Add().ReturnValue()
	m := c.Method("m", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	s := m.NewLocal(bc.KindInt)
	m.Const(0).Store(i).Const(0).Store(s)
	m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	m.Load(s).InvokeStatic(callee.Ref()).Store(s)
	m.Load(i).Const(1).Add().Store(i)
	m.Goto("head")
	m.Label("done").Load(s).ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	env := rt.NewEnv(p, 1)
	it := New(env)
	cm := p.ClassByName("C").MethodByName("m")
	cc := p.ClassByName("C").MethodByName("callee")
	if _, err := it.Call(cm, []rt.Value{rt.IntValue(50)}); err != nil {
		t.Fatal(err)
	}
	if got := it.Profile.Invocations(cc); got != 50 {
		t.Fatalf("callee invocations = %d, want 50", got)
	}
	// The loop branch at the head is taken once (exit) and not taken 50
	// times.
	if notTaken, taken := it.Profile.BranchCounts(cm, 6); notTaken != 50 || taken != 1 {
		t.Fatalf("loop branch counts = (%d not taken, %d taken), want (50, 1)", notTaken, taken)
	}
}

// TestFingerprintHashesOnlyPruningVerdicts: the fingerprint covers what the
// branch pruner decides and nothing else the profile collects.
func TestFingerprintHashesOnlyPruningVerdicts(t *testing.T) {
	p := compile(t, []bc.Kind{bc.KindInt}, bc.KindInt, func(m *bc.MethodAsm, _ *bc.ClassAsm) {
		m.Load(0).ReturnValue()
	})
	m := p.ClassByName("C").MethodByName("m")
	const minTotal = 10
	observe := func(taken, notTaken int) *Profile {
		prof := NewProfile(p)
		for i := 0; i < taken; i++ {
			prof.CountBranch(m, 4, true)
		}
		for i := 0; i < notTaken; i++ {
			prof.CountBranch(m, 4, false)
		}
		return prof
	}
	never := observe(0, 20)
	base := never.Fingerprint(minTotal)
	if observe(0, 500).Fingerprint(minTotal) != base {
		t.Fatal("raw counts leaked into the fingerprint")
	}
	for name, other := range map[string]*Profile{
		"always taken": observe(20, 0),
		"mixed":        observe(1, 19),
		"too cold":     observe(0, 5),
	} {
		if other.Fingerprint(minTotal) == base {
			t.Fatalf("%s branch fingerprints like a never-taken one", name)
		}
	}
	// What no compiler phase reads must not move the hash.
	never.CountInvocation(m)
	for i := 0; i < 5000; i++ {
		never.CountBackEdge(m, 0)
	}
	if never.Fingerprint(minTotal) != base {
		t.Fatal("invocation or back-edge counts moved the fingerprint")
	}
}

// Invoke makes every call the interpreted code makes; it may answer one
// itself and hand the rest back to Call.
func TestInvokeDiversion(t *testing.T) {
	a := bc.NewAssembler()
	c := a.Class("C", "")
	callee := c.Method("callee", nil, bc.KindInt, true)
	callee.Const(1).ReturnValue()
	m := c.Method("m", nil, bc.KindInt, true)
	m.InvokeStatic(callee.Ref()).ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	env := rt.NewEnv(p, 1)
	it := New(env)
	var seen []string
	it.Invoke = func(mm *bc.Method, args []rt.Value) (rt.Value, error) {
		seen = append(seen, mm.Name)
		if mm.Name == "callee" {
			return rt.IntValue(99), nil
		}
		return it.Call(mm, args)
	}
	got, err := it.Call(p.ClassByName("C").MethodByName("m"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 99 {
		t.Fatalf("Invoke not used: got %d", got.I)
	}
	if len(seen) != 1 || seen[0] != "callee" {
		t.Fatalf("Invoke saw %v, want only the call m makes", seen)
	}
}

func TestResumeMidMethod(t *testing.T) {
	// Deoptimization resumes a frame at an arbitrary pc with prepared
	// locals/stack. Build: m(x) { return x + 5 } and resume at the Add
	// with [x, 5] already on the stack.
	p := compile(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, _ *bc.ClassAsm) {
			m.Load(0).Const(5).Add().ReturnValue()
		})
	env := rt.NewEnv(p, 1)
	it := New(env)
	m := p.ClassByName("C").MethodByName("m")
	f := &Frame{
		Method: m,
		PC:     2, // the Add
		Locals: []rt.Value{rt.IntValue(37)},
		Stack:  []rt.Value{rt.IntValue(37), rt.IntValue(5)},
	}
	got, err := it.Resume(f)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 42 {
		t.Fatalf("resumed result = %d, want 42", got.I)
	}
}
