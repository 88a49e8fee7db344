package exec

import (
	"strings"
	"testing"

	"pea/internal/bc"
	"pea/internal/build"
	"pea/internal/rt"
)

// compileAndRun builds one static method C.m and executes it.
func compileAndRun(t *testing.T, params []bc.Kind, ret bc.Kind,
	body func(m *bc.MethodAsm, box *bc.ClassAsm, v *bc.Field), args ...int64) (rt.Value, *rt.Env, error) {
	t.Helper()
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	v := box.Field("v", bc.KindInt)
	c := a.Class("C", "")
	m := c.Method("m", params, ret, true)
	body(m, box, v)
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := build.Build(prog.ClassByName("C").MethodByName("m"))
	if err != nil {
		t.Fatal(err)
	}
	env := rt.NewEnv(prog, 1)
	env.MaxSteps = 100_000
	eng := &Engine{Env: env}
	vals := make([]rt.Value, len(args))
	for i, x := range args {
		vals[i] = rt.IntValue(x)
	}
	got, rerr := eng.Run(g, vals)
	return got, env, rerr
}

func TestExecTraps(t *testing.T) {
	cases := []struct {
		name string
		body func(m *bc.MethodAsm, box *bc.ClassAsm, v *bc.Field)
		want string
	}{
		{"null getfield", func(m *bc.MethodAsm, box *bc.ClassAsm, v *bc.Field) {
			m.ConstNull().GetField(v).ReturnValue()
		}, "null dereference"},
		{"null putfield", func(m *bc.MethodAsm, box *bc.ClassAsm, v *bc.Field) {
			m.ConstNull().Const(1).PutField(v)
			m.Const(0).ReturnValue()
		}, "null dereference"},
		{"division by zero", func(m *bc.MethodAsm, box *bc.ClassAsm, v *bc.Field) {
			m.Const(1).Const(0).Div().ReturnValue()
		}, "division by zero"},
		{"negative array size", func(m *bc.MethodAsm, box *bc.ClassAsm, v *bc.Field) {
			m.Const(-3).NewArray(bc.KindInt).ArrayLen().ReturnValue()
		}, "negative array size"},
		{"bounds", func(m *bc.MethodAsm, box *bc.ClassAsm, v *bc.Field) {
			m.Const(2).NewArray(bc.KindInt).Const(5).ArrayLoad(bc.KindInt).ReturnValue()
		}, "out of range"},
		{"null monitor", func(m *bc.MethodAsm, box *bc.ClassAsm, v *bc.Field) {
			m.ConstNull().MonitorEnter()
			m.Const(0).ReturnValue()
		}, "null dereference in monitorenter"},
		{"unbalanced exit", func(m *bc.MethodAsm, box *bc.ClassAsm, v *bc.Field) {
			m.New(box.Ref()).MonitorExit()
			m.Const(0).ReturnValue()
		}, "monitor exit on unlocked"},
		{"throw", func(m *bc.MethodAsm, box *bc.ClassAsm, v *bc.Field) {
			m.New(box.Ref()).Throw()
		}, "uncaught exception"},
		{"null throw", func(m *bc.MethodAsm, box *bc.ClassAsm, v *bc.Field) {
			m.ConstNull().Throw()
		}, "null throw"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := compileAndRun(t, nil, bc.KindInt, tc.body)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want %q", err, tc.want)
			}
		})
	}
}

func TestExecStepBudget(t *testing.T) {
	// A loop with an empty body must still hit the step budget (the
	// budget is checked at terminators too).
	_, _, err := compileAndRun(t, nil, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v *bc.Field) {
			m.Label("spin").Goto("spin")
		})
	if err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Fatalf("got %v, want step budget error", err)
	}
}

func TestExecStepBudgetWithBody(t *testing.T) {
	a := bc.NewAssembler()
	c := a.Class("C", "")
	m := c.Method("m", nil, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	m.Const(0).Store(i)
	m.Label("spin").Load(i).Const(1).Add().Store(i).Goto("spin")
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := build.Build(prog.ClassByName("C").MethodByName("m"))
	if err != nil {
		t.Fatal(err)
	}
	env := rt.NewEnv(prog, 1)
	env.MaxSteps = 5000
	eng := &Engine{Env: env}
	_, rerr := eng.Run(g, nil)
	if rerr == nil || !strings.Contains(rerr.Error(), "step budget") {
		t.Fatalf("got %v, want step budget error", rerr)
	}
}

func TestPhiEvaluationIsParallel(t *testing.T) {
	// Swap two values through loop phis: (a, b) -> (b, a) each
	// iteration. Sequential phi assignment would corrupt one of them.
	a := bc.NewAssembler()
	c := a.Class("C", "")
	m := c.Method("m", []bc.Kind{bc.KindInt, bc.KindInt, bc.KindInt}, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	tmp := m.NewLocal(bc.KindInt)
	m.Const(0).Store(i)
	m.Label("h").Load(i).Load(2).IfCmp(bc.CondGE, "d")
	m.Load(0).Store(tmp)
	m.Load(1).Store(0)
	m.Load(tmp).Store(1)
	m.Load(i).Const(1).Add().Store(i)
	m.Goto("h")
	m.Label("d").Load(0).Const(1000).Mul().Load(1).Add().ReturnValue()
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := build.Build(prog.ClassByName("C").MethodByName("m"))
	if err != nil {
		t.Fatal(err)
	}
	env := rt.NewEnv(prog, 1)
	env.MaxSteps = 100_000
	eng := &Engine{Env: env}
	got, rerr := eng.Run(g, []rt.Value{rt.IntValue(3), rt.IntValue(7), rt.IntValue(5)})
	if rerr != nil {
		t.Fatal(rerr)
	}
	// 5 swaps: (3,7) -> (7,3) -> (3,7) -> (7,3) -> (3,7) -> (7,3)
	if got.I != 7000+3 {
		t.Fatalf("got %d, want 7003 (parallel phi copy broken)", got.I)
	}
}

func TestExecVirtualDispatchThroughEngine(t *testing.T) {
	a := bc.NewAssembler()
	base := a.Class("Base", "")
	bget := base.Method("get", nil, bc.KindInt, false)
	bget.Const(1).ReturnValue()
	sub := a.Class("Sub", "Base")
	sub.Method("get", nil, bc.KindInt, false).Const(2).ReturnValue()
	c := a.Class("C", "")
	m := c.Method("m", nil, bc.KindInt, true)
	m.New(sub.Ref()).InvokeVirtual(bget.Ref()).ReturnValue()
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := build.Build(prog.ClassByName("C").MethodByName("m"))
	if err != nil {
		t.Fatal(err)
	}
	env := rt.NewEnv(prog, 1)
	eng := &Engine{Env: env}
	var dispatched string
	eng.Invoke = func(callee *bc.Method, args []rt.Value) (rt.Value, error) {
		dispatched = callee.QualifiedName()
		return rt.IntValue(99), nil
	}
	got, rerr := eng.Run(g, nil)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if dispatched != "Sub.get" {
		t.Fatalf("dispatched to %q, want Sub.get (vtable resolution in exec)", dispatched)
	}
	if got.I != 99 {
		t.Fatalf("got %d", got.I)
	}
}
