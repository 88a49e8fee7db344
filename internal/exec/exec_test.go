package exec

import (
	"testing"

	"pea/internal/bc"
	"pea/internal/build"
	"pea/internal/interp"
	"pea/internal/ir"
	"pea/internal/rt"
	"pea/internal/testprog"
)

// runInterp executes the entry method in the pure interpreter.
func runInterp(t *testing.T, p testprog.Program, args []int64) (rt.Value, *rt.Env, error) {
	t.Helper()
	env := rt.NewEnv(p.Prog, 42)
	it := interp.New(env)
	it.Env.MaxSteps = 5_000_000
	vals := make([]rt.Value, len(args))
	for i, a := range args {
		vals[i] = rt.IntValue(a)
	}
	v, err := it.Call(p.Entry, vals)
	return v, env, err
}

// buildAll builds IR graphs for every method of the program.
func buildAll(t *testing.T, prog *bc.Program) map[*bc.Method]*ir.Graph {
	t.Helper()
	graphs := make(map[*bc.Method]*ir.Graph, len(prog.Methods))
	for _, m := range prog.Methods {
		g, err := build.Build(m)
		if err != nil {
			t.Fatalf("build %s: %v", m.QualifiedName(), err)
		}
		graphs[m] = g
	}
	return graphs
}

// runExec executes the entry method with every call running through built
// IR graphs.
func runExec(t *testing.T, p testprog.Program, graphs map[*bc.Method]*ir.Graph, args []int64) (rt.Value, *rt.Env, error) {
	t.Helper()
	env := rt.NewEnv(p.Prog, 42)
	env.MaxSteps = 5_000_000
	eng := &Engine{Env: env}
	eng.Invoke = func(callee *bc.Method, vals []rt.Value) (rt.Value, error) {
		g, ok := graphs[callee]
		if !ok {
			t.Fatalf("no graph for %s", callee.QualifiedName())
		}
		return eng.Run(g, vals)
	}
	vals := make([]rt.Value, len(args))
	for i, a := range args {
		vals[i] = rt.IntValue(a)
	}
	v, err := eng.Run(graphs[p.Entry], vals)
	return v, env, err
}

// assertSameBehaviour compares two runs: result, error presence, program
// output, and dynamic statistics that an unoptimized compiler must
// preserve exactly.
func assertSameBehaviour(t *testing.T, name string, args []int64,
	v1 rt.Value, env1 *rt.Env, err1 error,
	v2 rt.Value, env2 *rt.Env, err2 error, compareStats bool) {
	t.Helper()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s%v: interp err=%v, exec err=%v", name, args, err1, err2)
	}
	if err1 != nil {
		// Traps are canonical: identity is (reason, method, bci) with the
		// method the innermost frame, so every engine must agree exactly.
		t1, ok1 := err1.(*rt.Trap)
		t2, ok2 := err2.(*rt.Trap)
		if ok1 != ok2 {
			t.Fatalf("%s%v: interp err=%v, exec err=%v", name, args, err1, err2)
		}
		if ok1 && (t1.Reason != t2.Reason || t1.Method != t2.Method || t1.PC != t2.PC) {
			t.Fatalf("%s%v: trap identity differs: interp=%v, exec=%v", name, args, t1, t2)
		}
		return
	}
	if !v1.Equal(v2) {
		t.Fatalf("%s%v: interp=%v exec=%v", name, args, v1, v2)
	}
	if len(env1.Output) != len(env2.Output) {
		t.Fatalf("%s%v: output lengths differ: %v vs %v", name, args, env1.Output, env2.Output)
	}
	for i := range env1.Output {
		if env1.Output[i] != env2.Output[i] {
			t.Fatalf("%s%v: output[%d]: %d vs %d", name, args, i, env1.Output[i], env2.Output[i])
		}
	}
	if compareStats {
		s1, s2 := env1.Stats, env2.Stats
		if s1.Allocations != s2.Allocations || s1.AllocatedBytes != s2.AllocatedBytes {
			t.Fatalf("%s%v: alloc stats differ: %+v vs %+v", name, args, s1, s2)
		}
		if s1.MonitorOps != s2.MonitorOps {
			t.Fatalf("%s%v: monitor ops differ: %d vs %d", name, args, s1.MonitorOps, s2.MonitorOps)
		}
		if s1.FieldLoads != s2.FieldLoads || s1.FieldStores != s2.FieldStores {
			t.Fatalf("%s%v: field stats differ: %+v vs %+v", name, args, s1, s2)
		}
	}
}

// TestExecMatchesInterpreter is the core differential test: the IR produced
// by the graph builder, executed by the engine, must be observationally
// identical to the bytecode interpreter on the whole corpus — including
// allocation, monitor and field-access counts, since no optimization ran.
func TestExecMatchesInterpreter(t *testing.T) {
	for _, p := range testprog.Corpus() {
		t.Run(p.Name, func(t *testing.T) {
			graphs := buildAll(t, p.Prog)
			for _, args := range p.ArgSets {
				v1, env1, err1 := runInterp(t, p, args)
				v2, env2, err2 := runExec(t, p, graphs, args)
				assertSameBehaviour(t, p.Name, args, v1, env1, err1, v2, env2, err2, true)
			}
		})
	}
}

// TestGraphsVerify checks that every built graph passes the IR verifier.
func TestGraphsVerify(t *testing.T) {
	for _, p := range testprog.Corpus() {
		for _, m := range p.Prog.Methods {
			g, err := build.Build(m)
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, m.QualifiedName(), err)
			}
			if err := ir.Verify(g); err != nil {
				t.Fatalf("%s %s: %v", p.Name, m.QualifiedName(), err)
			}
		}
	}
}

// TestDeoptHookInvoked checks that reaching an OpDeopt calls the hook with
// an evaluator over current values.
func TestDeoptHookInvoked(t *testing.T) {
	// Build m(x) = x+1, then replace the return with a deopt.
	a := bc.NewAssembler()
	c := a.Class("C", "")
	ma := c.Method("m", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	ma.Load(0).Const(1).Add().Store(0).Load(0).ReturnValue()
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	m := prog.ClassByName("C").MethodByName("m")
	g, err := build.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	// Find the return block and replace its terminator with a deopt
	// reusing the return's frame state.
	var retBlock *ir.Block
	for _, b := range g.Blocks {
		if b.Term != nil && b.Term.Op == ir.OpReturn {
			retBlock = b
		}
	}
	if retBlock == nil {
		t.Fatal("no return block")
	}
	d := g.NewNode(ir.OpDeopt, bc.KindVoid)
	d.FrameState = retBlock.Term.FrameState
	d.DeoptReason = "test"
	retBlock.Succs = nil
	g.SetTerm(retBlock, d)
	if err := ir.Verify(g); err != nil {
		t.Fatal(err)
	}

	env := rt.NewEnv(prog, 1)
	eng := &Engine{Env: env}
	called := false
	eng.Deopt = func(dg *ir.Graph, dn *ir.Node, eval func(n *ir.Node) (rt.Value, bool)) (rt.Value, error) {
		called = true
		fs := dn.FrameState
		if dg != g {
			t.Fatalf("deopt graph = %p, want %p", dg, g)
		}
		if fs.Method != m {
			t.Fatalf("deopt state method = %v", fs.Method)
		}
		// The expression stack holds x+1 = 42 at the return (local 0
		// is dead there and pruned by liveness).
		if len(fs.Stack) != 1 {
			t.Fatalf("stack = %v", fs.Stack)
		}
		v, ok := eval(fs.Stack[0])
		if !ok {
			t.Fatal("stack slot not evaluated")
		}
		return v, nil
	}
	got, err := eng.Run(g, []rt.Value{rt.IntValue(41)})
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("deopt hook not called")
	}
	if got.I != 42 {
		t.Fatalf("deopt result = %d, want 42", got.I)
	}
	if env.Stats.Deopts != 1 {
		t.Fatalf("deopt counter = %d", env.Stats.Deopts)
	}
}

// TestMaterializeNode executes an OpMaterialize directly.
func TestMaterializeNode(t *testing.T) {
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	box.Field("v", bc.KindInt)
	box.Field("w", bc.KindInt)
	c := a.Class("C", "")
	cm := c.Method("m", nil, bc.KindInt, true)
	cm.Const(0).ReturnValue()
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	bcls := prog.ClassByName("Box")
	m := prog.ClassByName("C").MethodByName("m")
	g := ir.NewGraph(m)
	b0 := g.Entry()
	c1 := g.ConstInt(b0, 11)
	c2 := g.ConstInt(b0, 22)
	mat := g.NewNode(ir.OpMaterialize, bc.KindRef, c1, c2)
	mat.Class = bcls
	mat.AuxLock = 2
	g.Append(b0, mat)
	fld := g.NewNode(ir.OpLoadField, bc.KindInt, mat)
	fld.Field = bcls.FieldByName("w")
	g.Append(b0, fld)
	g.SetTerm(b0, g.NewNode(ir.OpReturn, bc.KindVoid, fld))
	if err := ir.Verify(g); err != nil {
		t.Fatal(err)
	}

	env := rt.NewEnv(prog, 1)
	eng := &Engine{Env: env}
	got, err := eng.Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 22 {
		t.Fatalf("materialized field = %d, want 22", got.I)
	}
	if env.Stats.Allocations != 1 || env.Stats.Materializations != 1 {
		t.Fatalf("stats: %+v", env.Stats)
	}
	if env.Stats.MonitorOps != 2 {
		t.Fatalf("relock ops = %d, want 2", env.Stats.MonitorOps)
	}
}
