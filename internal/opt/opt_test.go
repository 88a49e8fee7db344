package opt

import (
	"strings"
	"testing"

	"pea/internal/bc"
	"pea/internal/build"
	"pea/internal/check"
	"pea/internal/exec"
	"pea/internal/interp"
	"pea/internal/ir"
	"pea/internal/rt"
	"pea/internal/testprog"
)

// optimizeAll builds and optimizes graphs for every method of the program
// with the full non-speculative pipeline including inlining.
func optimizeAll(t *testing.T, prog *bc.Program) map[*bc.Method]*ir.Graph {
	t.Helper()
	graphs := make(map[*bc.Method]*ir.Graph, len(prog.Methods))
	for _, m := range prog.Methods {
		g, err := build.Build(m)
		if err != nil {
			t.Fatalf("build %s: %v", m.QualifiedName(), err)
		}
		pipe := &Pipeline{Phases: PreEA(prog, nil), Check: check.Basic}
		if err := pipe.Run(g); err != nil {
			t.Fatalf("optimize %s: %v", m.QualifiedName(), err)
		}
		graphs[m] = g
	}
	return graphs
}

func runOptimized(t *testing.T, p testprog.Program, graphs map[*bc.Method]*ir.Graph, args []int64) (rt.Value, *rt.Env, error) {
	t.Helper()
	env := rt.NewEnv(p.Prog, 42)
	env.MaxSteps = 5_000_000
	eng := &exec.Engine{Env: env}
	eng.Invoke = func(callee *bc.Method, vals []rt.Value) (rt.Value, error) {
		return eng.Run(graphs[callee], vals)
	}
	vals := make([]rt.Value, len(args))
	for i, a := range args {
		vals[i] = rt.IntValue(a)
	}
	v, err := eng.Run(graphs[p.Entry], vals)
	return v, env, err
}

func runReference(t *testing.T, p testprog.Program, args []int64) (rt.Value, *rt.Env, error) {
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

// TestOptimizedMatchesInterpreter: the full pipeline (inlining included)
// must preserve results, output, and — since none of these phases touch
// allocations, monitors or field accesses — the dynamic operation counts.
func TestOptimizedMatchesInterpreter(t *testing.T) {
	for _, p := range testprog.Corpus() {
		t.Run(p.Name, func(t *testing.T) {
			graphs := optimizeAll(t, p.Prog)
			for _, args := range p.ArgSets {
				v1, env1, err1 := runReference(t, p, args)
				v2, env2, err2 := runOptimized(t, p, graphs, args)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%v: interp err=%v, opt err=%v", args, err1, err2)
				}
				if err1 != nil {
					continue
				}
				if !v1.Equal(v2) {
					t.Fatalf("%v: interp=%v opt=%v", args, v1, v2)
				}
				s1, s2 := env1.Stats, env2.Stats
				if s1.Allocations != s2.Allocations || s1.MonitorOps != s2.MonitorOps ||
					s1.FieldLoads != s2.FieldLoads || s1.FieldStores != s2.FieldStores {
					t.Fatalf("%v: stats diverged without EA: %+v vs %+v", args, s1, s2)
				}
			}
		})
	}
}

func buildSingle(t *testing.T, body func(a *bc.Assembler) *bc.MethodAsm) (*bc.Program, *ir.Graph) {
	t.Helper()
	a := bc.NewAssembler()
	ma := body(a)
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := build.Build(ma.Ref())
	if err != nil {
		t.Fatal(err)
	}
	return prog, g
}

func countOps(g *ir.Graph, op ir.Op) int {
	n := 0
	g.ForEachNode(func(_ *ir.Block, x *ir.Node) {
		if x.Op == op {
			n++
		}
	})
	return n
}

func TestConstantFolding(t *testing.T) {
	_, g := buildSingle(t, func(a *bc.Assembler) *bc.MethodAsm {
		m := a.Class("C", "").Method("m", nil, bc.KindInt, true)
		m.Const(6).Const(7).Mul().Const(2).Add().ReturnValue()
		return m
	})
	if err := Standard().Run(g); err != nil {
		t.Fatal(err)
	}
	if got := countOps(g, ir.OpArith); got != 0 {
		t.Fatalf("arith nodes left: %d\n%s", got, ir.Dump(g))
	}
	// The return input must be the constant 44.
	ret := g.Blocks[len(g.Blocks)-1].Term
	for _, b := range g.Blocks {
		if b.Term.Op == ir.OpReturn {
			ret = b.Term
		}
	}
	if ret.Inputs[0].Op != ir.OpConst || ret.Inputs[0].AuxInt != 44 {
		t.Fatalf("return input = %s", ret.Inputs[0])
	}
}

func TestAlgebraicIdentities(t *testing.T) {
	_, g := buildSingle(t, func(a *bc.Assembler) *bc.MethodAsm {
		m := a.Class("C", "").Method("m", []bc.Kind{bc.KindInt}, bc.KindInt, true)
		// ((x+0)*1 - 0) + (x-x)
		m.Load(0).Const(0).Add().Const(1).Mul().Const(0).Sub()
		m.Load(0).Load(0).Sub().Add().ReturnValue()
		return m
	})
	if err := Standard().Run(g); err != nil {
		t.Fatal(err)
	}
	if got := countOps(g, ir.OpArith); got != 0 {
		t.Fatalf("arith not fully simplified (%d left):\n%s", got, ir.Dump(g))
	}
}

func TestConstantIfFolding(t *testing.T) {
	_, g := buildSingle(t, func(a *bc.Assembler) *bc.MethodAsm {
		m := a.Class("C", "").Method("m", nil, bc.KindInt, true)
		m.Const(1).If(bc.CondNE, "yes")
		m.Const(10).ReturnValue()
		m.Label("yes").Const(20).ReturnValue()
		return m
	})
	if err := Standard().Run(g); err != nil {
		t.Fatal(err)
	}
	if got := countOps(g, ir.OpIf); got != 0 {
		t.Fatalf("If not folded:\n%s", ir.Dump(g))
	}
	if got := countOps(g, ir.OpReturn); got != 1 {
		t.Fatalf("dead branch kept:\n%s", ir.Dump(g))
	}
	var ret *ir.Node
	g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
		if n.Op == ir.OpReturn {
			ret = n
		}
	})
	if ret.Inputs[0].AuxInt != 20 {
		t.Fatalf("wrong branch survived: %s", ret.Inputs[0])
	}
}

func TestGVNDeduplicates(t *testing.T) {
	_, g := buildSingle(t, func(a *bc.Assembler) *bc.MethodAsm {
		m := a.Class("C", "").Method("m", []bc.Kind{bc.KindInt, bc.KindInt}, bc.KindInt, true)
		// (x+y) * (x+y) computed as two separate adds
		m.Load(0).Load(1).Add()
		m.Load(0).Load(1).Add()
		m.Mul().ReturnValue()
		return m
	})
	if err := Standard().Run(g); err != nil {
		t.Fatal(err)
	}
	adds := 0
	g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
		if n.Op == ir.OpArith && n.Aux2 == bc.OpAdd {
			adds++
		}
	})
	if adds != 1 {
		t.Fatalf("GVN left %d adds:\n%s", adds, ir.Dump(g))
	}
}

func TestGVNRespectsDominance(t *testing.T) {
	// x+y computed in both arms of a diamond must NOT merge into one
	// (neither arm dominates the other).
	_, g := buildSingle(t, func(a *bc.Assembler) *bc.MethodAsm {
		m := a.Class("C", "").Method("m", []bc.Kind{bc.KindInt, bc.KindInt}, bc.KindInt, true)
		r := m.NewLocal(bc.KindInt)
		m.Load(0).If(bc.CondNE, "b")
		m.Load(0).Load(1).Add().Store(r).Goto("join")
		m.Label("b").Load(0).Load(1).Add().Store(r)
		m.Label("join").Load(r).ReturnValue()
		return m
	})
	if _, err := (GVN{}).Run(g); err != nil {
		t.Fatal(err)
	}
	adds := 0
	g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
		if n.Op == ir.OpArith && n.Aux2 == bc.OpAdd {
			adds++
		}
	})
	if adds != 2 {
		t.Fatalf("GVN merged across non-dominating blocks (%d adds):\n%s", adds, ir.Dump(g))
	}
}

func TestInlineStaticCall(t *testing.T) {
	a := bc.NewAssembler()
	c := a.Class("C", "")
	callee := c.Method("inc", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	callee.Load(0).Const(1).Add().ReturnValue()
	caller := c.Method("m", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	caller.Load(0).InvokeStatic(callee.Ref()).Const(2).Mul().ReturnValue()
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := build.Build(caller.Ref())
	if err != nil {
		t.Fatal(err)
	}
	in := &Inliner{BuildGraph: build.Build, Program: prog}
	changed, err := in.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Fatal("nothing inlined")
	}
	if err := ir.Verify(g); err != nil {
		t.Fatalf("after inline: %v\n%s", err, ir.Dump(g))
	}
	if got := countOps(g, ir.OpInvoke); got != 0 {
		t.Fatalf("invoke survived:\n%s", ir.Dump(g))
	}
	// Inlined code's frame states must chain to the caller.
	found := false
	g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
		if n.FrameState != nil && n.FrameState.Method == callee.Ref() {
			found = true
			if n.FrameState.Outer == nil || n.FrameState.Outer.Method != caller.Ref() {
				t.Fatalf("inlined state not chained: %s", n.FrameState)
			}
		}
	})
	_ = found // inlined pure code may carry no states after cloning

	// Execute: m(20) == 42.
	env := rt.NewEnv(prog, 1)
	eng := &exec.Engine{Env: env}
	got, err := eng.Run(g, []rt.Value{rt.IntValue(20)})
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 42 {
		t.Fatalf("inlined result = %d", got.I)
	}
}

func TestInlineDevirtualizesExactType(t *testing.T) {
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
	g, err := build.Build(m.Ref())
	if err != nil {
		t.Fatal(err)
	}
	in := &Inliner{BuildGraph: build.Build, Program: prog}
	if _, err := in.Run(g); err != nil {
		t.Fatal(err)
	}
	if got := countOps(g, ir.OpInvoke); got != 0 {
		t.Fatalf("virtual call on exact type not inlined:\n%s", ir.Dump(g))
	}
	env := rt.NewEnv(prog, 1)
	eng := &exec.Engine{Env: env}
	got, err := eng.Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 2 {
		t.Fatalf("devirtualized to wrong target: %d", got.I)
	}
}

// TestInlineDevirtualizesThroughPendingRewrite: a virtual call whose
// receiver is the value of a call spliced earlier in the same Run is
// devirtualized by the receiver's exact type, read through the Run's
// pending substitution, although class hierarchy analysis finds two
// targets:
//
//	make() { return new One }
//	m()    { return make().get() }   // One.get and Two.get override Base.get
func TestInlineDevirtualizesThroughPendingRewrite(t *testing.T) {
	a := bc.NewAssembler()
	base := a.Class("Base", "")
	bget := base.Method("get", nil, bc.KindInt, false)
	bget.Const(0).ReturnValue()
	one := a.Class("One", "Base")
	one.Method("get", nil, bc.KindInt, false).Const(1).ReturnValue()
	two := a.Class("Two", "Base")
	two.Method("get", nil, bc.KindInt, false).Const(2).ReturnValue()
	c := a.Class("C", "")
	mk := c.Method("make", nil, bc.KindRef, true)
	mk.New(one.Ref()).ReturnValue()
	m := c.Method("m", nil, bc.KindInt, true)
	m.InvokeStatic(mk.Ref()).InvokeVirtual(bget.Ref()).ReturnValue()
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := build.Build(m.Ref())
	if err != nil {
		t.Fatal(err)
	}
	in := &Inliner{BuildGraph: build.Build, Program: prog}
	if _, err := in.Run(g); err != nil {
		t.Fatal(err)
	}
	if got := countOps(g, ir.OpInvoke); got != 0 {
		t.Fatalf("virtual call on a spliced call's exact type not inlined:\n%s", ir.Dump(g))
	}
	env := rt.NewEnv(prog, 1)
	eng := &exec.Engine{Env: env}
	got, err := eng.Run(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 1 {
		t.Fatalf("devirtualized to wrong target: %d", got.I)
	}
}

func TestCHARefusesPolymorphicSite(t *testing.T) {
	a := bc.NewAssembler()
	base := a.Class("Base", "")
	bget := base.Method("get", nil, bc.KindInt, false)
	bget.Const(1).ReturnValue()
	sub := a.Class("Sub", "Base")
	sub.Method("get", nil, bc.KindInt, false).Const(2).ReturnValue()
	c := a.Class("C", "")
	m := c.Method("m", []bc.Kind{bc.KindRef}, bc.KindInt, true)
	m.Load(0).InvokeVirtual(bget.Ref()).ReturnValue()
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := build.Build(m.Ref())
	if err != nil {
		t.Fatal(err)
	}
	in := &Inliner{BuildGraph: build.Build, Program: prog}
	if _, err := in.Run(g); err != nil {
		t.Fatal(err)
	}
	if got := countOps(g, ir.OpInvoke); got != 1 {
		t.Fatalf("polymorphic site should not inline:\n%s", ir.Dump(g))
	}
}

func TestCHADevirtualizesMonomorphicHierarchy(t *testing.T) {
	a := bc.NewAssembler()
	base := a.Class("Base", "")
	bget := base.Method("get", nil, bc.KindInt, false)
	bget.Const(7).ReturnValue()
	a.Class("Sub", "Base") // no override
	c := a.Class("C", "")
	m := c.Method("m", []bc.Kind{bc.KindRef}, bc.KindInt, true)
	m.Load(0).InvokeVirtual(bget.Ref()).ReturnValue()
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := build.Build(m.Ref())
	if err != nil {
		t.Fatal(err)
	}
	in := &Inliner{BuildGraph: build.Build, Program: prog}
	if _, err := in.Run(g); err != nil {
		t.Fatal(err)
	}
	if got := countOps(g, ir.OpInvoke); got != 0 {
		t.Fatalf("CHA-monomorphic site not inlined:\n%s", ir.Dump(g))
	}
}

func TestNoRecursiveInlining(t *testing.T) {
	a := bc.NewAssembler()
	c := a.Class("C", "")
	m := c.Method("fib", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	m.Load(0).Const(2).IfCmp(bc.CondLT, "base")
	m.Load(0).Const(1).Sub().InvokeStatic(m.Ref())
	m.Load(0).Const(2).Sub().InvokeStatic(m.Ref())
	m.Add().ReturnValue()
	m.Label("base").Load(0).ReturnValue()
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := build.Build(m.Ref())
	if err != nil {
		t.Fatal(err)
	}
	in := &Inliner{BuildGraph: build.Build, Program: prog}
	if _, err := in.Run(g); err != nil {
		t.Fatal(err)
	}
	if got := countOps(g, ir.OpInvoke); got != 2 {
		t.Fatalf("self-recursive calls should stay (%d invokes left)", got)
	}
}

func TestTrivialPhiElimination(t *testing.T) {
	_, g := buildSingle(t, func(a *bc.Assembler) *bc.MethodAsm {
		m := a.Class("C", "").Method("m", []bc.Kind{bc.KindInt}, bc.KindInt, true)
		// Both arms store the same value; the phi is trivial.
		r := m.NewLocal(bc.KindInt)
		m.Load(0).If(bc.CondNE, "b")
		m.Load(0).Store(r).Goto("join")
		m.Label("b").Load(0).Store(r)
		m.Label("join").Load(r).ReturnValue()
		return m
	})
	if err := Standard().Run(g); err != nil {
		t.Fatal(err)
	}
	if got := countOps(g, ir.OpPhi); got != 0 {
		t.Fatalf("trivial phi kept:\n%s", ir.Dump(g))
	}
}

func TestRefEqFolding(t *testing.T) {
	_, g := buildSingle(t, func(a *bc.Assembler) *bc.MethodAsm {
		m := a.Class("C", "").Method("m", nil, bc.KindInt, true)
		// null == null -> true branch
		m.ConstNull().ConstNull().IfRef(bc.CondEQ, "eq")
		m.Const(0).ReturnValue()
		m.Label("eq").Const(1).ReturnValue()
		return m
	})
	if err := Standard().Run(g); err != nil {
		t.Fatal(err)
	}
	var ret *ir.Node
	g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
		if n.Op == ir.OpReturn {
			ret = n
		}
	})
	if countOps(g, ir.OpReturn) != 1 || ret.Inputs[0].AuxInt != 1 {
		t.Fatalf("null==null not folded:\n%s", ir.Dump(g))
	}
}

func TestPipelineNameAndValidation(t *testing.T) {
	names := []string{}
	for _, ph := range Standard().Phases {
		names = append(names, ph.Name())
	}
	joined := strings.Join(names, ",")
	for _, want := range []string{"canonicalize", "simplify-cfg", "gvn", "dce"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("standard pipeline missing %s: %s", want, joined)
		}
	}
}
