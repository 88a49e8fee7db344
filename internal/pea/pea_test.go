package pea

import (
	"testing"

	"pea/internal/bc"
	"pea/internal/build"
	"pea/internal/check"
	"pea/internal/exec"
	"pea/internal/interp"
	"pea/internal/ir"
	"pea/internal/obs"
	"pea/internal/opt"
	"pea/internal/rt"
	"pea/internal/testprog"
)

// compileWithPEA builds, inlines, optimizes and PEA-transforms every
// method of the program.
func compileWithPEA(t *testing.T, prog *bc.Program) map[*bc.Method]*ir.Graph {
	t.Helper()
	graphs := make(map[*bc.Method]*ir.Graph, len(prog.Methods))
	for _, m := range prog.Methods {
		graphs[m] = compileOne(t, prog, m)
	}
	return graphs
}

func compileOne(t *testing.T, prog *bc.Program, m *bc.Method) *ir.Graph {
	t.Helper()
	g, err := build.Build(m)
	if err != nil {
		t.Fatalf("build %s: %v", m.QualifiedName(), err)
	}
	pre := &opt.Pipeline{Phases: opt.PreEA(prog, nil), Check: check.Basic}
	if err := pre.Run(g); err != nil {
		t.Fatalf("pre-opt %s: %v", m.QualifiedName(), err)
	}
	res, err := Run(g, Config{})
	if err != nil {
		t.Fatalf("pea %s: %v\n%s", m.QualifiedName(), err, ir.Dump(g))
	}
	if res.BailedOut {
		t.Fatalf("pea bailed out on %s", m.QualifiedName())
	}
	if err := ir.Verify(g); err != nil {
		t.Fatalf("pea %s produced invalid graph: %v\n%s", m.QualifiedName(), err, ir.Dump(g))
	}
	post := opt.Standard()
	post.Check = check.Basic
	if err := post.Run(g); err != nil {
		t.Fatalf("post-opt %s: %v", m.QualifiedName(), err)
	}
	return g
}

func runPEA(t *testing.T, p testprog.Program, graphs map[*bc.Method]*ir.Graph, args []int64) (rt.Value, *rt.Env, error) {
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

func runRef(t *testing.T, p testprog.Program, args []int64) (rt.Value, *rt.Env, error) {
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

// TestPEAMatchesInterpreter: correctness — results and output identical to
// the interpreter; and the paper's guarantee that PEA never increases the
// dynamic number of allocations or monitor operations.
func TestPEAMatchesInterpreter(t *testing.T) {
	for _, p := range testprog.Corpus() {
		t.Run(p.Name, func(t *testing.T) {
			graphs := compileWithPEA(t, p.Prog)
			for _, args := range p.ArgSets {
				v1, env1, err1 := runRef(t, p, args)
				v2, env2, err2 := runPEA(t, p, graphs, args)
				if (err1 == nil) != (err2 == nil) {
					t.Fatalf("%v: interp err=%v, pea err=%v", args, err1, err2)
				}
				if err1 != nil {
					continue
				}
				if !v1.Equal(v2) {
					t.Fatalf("%v: interp=%v pea=%v", args, v1, v2)
				}
				if len(env1.Output) != len(env2.Output) {
					t.Fatalf("%v: outputs differ", args)
				}
				for i := range env1.Output {
					if env1.Output[i] != env2.Output[i] {
						t.Fatalf("%v: output[%d] %d vs %d", args, i, env1.Output[i], env2.Output[i])
					}
				}
				if env2.Stats.Allocations > env1.Stats.Allocations {
					t.Fatalf("%v: PEA increased allocations %d -> %d",
						args, env1.Stats.Allocations, env2.Stats.Allocations)
				}
				if env2.Stats.MonitorOps > env1.Stats.MonitorOps {
					t.Fatalf("%v: PEA increased monitor ops %d -> %d",
						args, env1.Stats.MonitorOps, env2.Stats.MonitorOps)
				}
			}
		})
	}
}

// expectation describes the allocation behaviour PEA must achieve on a
// corpus program for specific arguments.
type expectation struct {
	prog   string
	args   []int64
	allocs int64 // expected allocation count under PEA
	mons   int64 // expected monitor ops under PEA (-1 = don't check)
}

// TestPEABehaviour checks the paper's core claims pattern by pattern.
func TestPEABehaviour(t *testing.T) {
	cases := []expectation{
		// Fully scalar-replaced: no allocation remains.
		{prog: "nonEscaping", args: []int64{14}, allocs: 0, mons: -1},
		// Partial escape (paper Listing 4): no allocation on the
		// non-escaping branch, one on the escaping branch.
		{prog: "partialEscape", args: []int64{0}, allocs: 0, mons: -1},
		{prog: "partialEscape", args: []int64{99}, allocs: 0, mons: -1},
		{prog: "partialEscape", args: []int64{100}, allocs: 1, mons: -1},
		// Escapes on both branches: allocation must remain.
		{prog: "escapeBothBranches", args: []int64{0}, allocs: 1, mons: -1},
		{prog: "escapeBothBranches", args: []int64{1}, allocs: 1, mons: -1},
		// Per-iteration temporary: all n allocations removed.
		{prog: "allocInLoop", args: []int64{25}, allocs: 0, mons: -1},
		// Lock elision on a non-escaping object: no monitor ops, no
		// allocation.
		{prog: "syncNonEscaping", args: []int64{21}, allocs: 0, mons: 0},
		// Locked object escaping on one branch: lock stays elided on
		// the virtual path (monitors only happen via materialization
		// re-locking, which is zero here because the lock is released
		// before the escape).
		{prog: "syncPartialEscape", args: []int64{5}, allocs: 0, mons: 0},
		{prog: "syncPartialEscape", args: []int64{-5}, allocs: 1, mons: 0},
		// Object graph: both virtual when not escaping.
		{prog: "objectGraph", args: []int64{3}, allocs: 0, mons: -1},
		{prog: "objectGraph", args: []int64{-3}, allocs: 2, mons: -1},
		// Aliased locals on one virtual object.
		{prog: "aliasedStores", args: []int64{37}, allocs: 0, mons: -1},
		// Constant-length array, partial escape.
		{prog: "arrayEscape", args: []int64{1}, allocs: 0, mons: -1},
		{prog: "arrayEscape", args: []int64{120}, allocs: 1, mons: -1},
		// Reference array holding a virtual object: both virtual on the
		// non-escaping path; the Box and the array materialize on escape.
		{prog: "refArray", args: []int64{5}, allocs: 0, mons: -1},
		{prog: "refArray", args: []int64{-5}, allocs: 1, mons: -1},
		// Nested synchronized regions on two virtual objects: all four
		// monitor ops elided on the hot path.
		{prog: "nestedSync", args: []int64{1}, allocs: 0, mons: 0},
		{prog: "nestedSync", args: []int64{50}, allocs: 1, mons: 0},
		// Self-referential object (cycle): kept as a real allocation.
		{prog: "selfReference", args: []int64{11}, allocs: 1, mons: -1},
		// Escape hidden behind a callee: removed once inlining exposes it.
		{prog: "partialViaCallee", args: []int64{9}, allocs: 0, mons: -1},
		{prog: "partialViaCallee", args: []int64{42}, allocs: 1, mons: -1},
	}
	byName := make(map[string]testprog.Program)
	for _, p := range testprog.Corpus() {
		byName[p.Name] = p
	}
	for _, tc := range cases {
		p := byName[tc.prog]
		t.Run(tc.prog, func(t *testing.T) {
			graphs := compileWithPEA(t, p.Prog)
			vref, envRef, errRef := runRef(t, p, tc.args)
			v, env, err := runPEA(t, p, graphs, tc.args)
			if err != nil || errRef != nil {
				t.Fatalf("args %v: err=%v refErr=%v", tc.args, err, errRef)
			}
			if !v.Equal(vref) {
				t.Fatalf("args %v: wrong result %v, want %v", tc.args, v, vref)
			}
			if env.Stats.Allocations != tc.allocs {
				t.Fatalf("args %v: allocations = %d, want %d (baseline %d)",
					tc.args, env.Stats.Allocations, tc.allocs, envRef.Stats.Allocations)
			}
			if tc.mons >= 0 && env.Stats.MonitorOps != tc.mons {
				t.Fatalf("args %v: monitor ops = %d, want %d (baseline %d)",
					tc.args, env.Stats.MonitorOps, tc.mons, envRef.Stats.MonitorOps)
			}
		})
	}
}

// TestCacheKeyListing4to6 reproduces the paper's running example: the
// hand-inlined cacheKey method (Listing 5) must, after PEA, allocate only
// on the cache-miss path (Listing 6) and never lock.
func TestCacheKeyListing4to6(t *testing.T) {
	var p testprog.Program
	for _, c := range testprog.Corpus() {
		if c.Name == "cacheKey" {
			p = c
		}
	}
	graphs := compileWithPEA(t, p.Prog)
	run := p.Prog.ClassByName("P").MethodByName("run")
	g := graphs[run]
	// The monitor pair must be gone entirely (the key never escapes
	// while locked).
	mons := 0
	g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
		if n.Op == ir.OpMonitorEnter || n.Op == ir.OpMonitorExit {
			mons++
		}
	})
	if mons != 0 {
		t.Fatalf("monitors not elided:\n%s", ir.Dump(g))
	}
	// Exactly one materialization site (the miss branch), no original
	// allocation.
	news, mats := 0, 0
	g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
		// oplint:ignore — counts two ops of interest.
		switch n.Op {
		case ir.OpNew:
			news++
		case ir.OpMaterialize:
			mats++
		}
	})
	if news != 0 || mats != 1 {
		t.Fatalf("allocation not moved into the miss branch (new=%d mat=%d):\n%s",
			news, mats, ir.Dump(g))
	}

	// Dynamically: driver(50) performs 50 calls with key pattern
	// i/4, so a miss happens only when i/4 changes (13 distinct keys),
	// the rest are hits with zero allocation.
	v1, env1, err1 := runRef(t, p, []int64{50})
	v2, env2, err2 := runPEA(t, p, graphs, []int64{50})
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !v1.Equal(v2) {
		t.Fatalf("results differ: %v vs %v", v1, v2)
	}
	if env1.Stats.Allocations != 50 {
		t.Fatalf("baseline should allocate every call, got %d", env1.Stats.Allocations)
	}
	if env2.Stats.Allocations != 13 {
		t.Fatalf("PEA should allocate only on misses: got %d, want 13", env2.Stats.Allocations)
	}
	if env2.Stats.MonitorOps != 0 {
		t.Fatalf("PEA monitor ops = %d, want 0", env2.Stats.MonitorOps)
	}
}

// TestResultCounters sanity-checks the Result statistics.
func TestResultCounters(t *testing.T) {
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	v := box.Field("v", bc.KindInt)
	c := a.Class("C", "")
	m := c.Method("m", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	l := m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(l)
	m.Load(l).MonitorEnter()
	m.Load(l).Load(0).PutField(v)
	m.Load(l).MonitorExit()
	m.Load(l).GetField(v).ReturnValue()
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := build.Build(prog.ClassByName("C").MethodByName("m"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Changed {
		t.Fatal("PEA reported no change")
	}
	if res.VirtualizedAllocs != 1 {
		t.Fatalf("VirtualizedAllocs = %d", res.VirtualizedAllocs)
	}
	if res.ElidedMonitors != 2 {
		t.Fatalf("ElidedMonitors = %d", res.ElidedMonitors)
	}
	if res.ScalarizedLoads != 1 {
		t.Fatalf("ScalarizedLoads = %d", res.ScalarizedLoads)
	}
	if res.MaterializeSites != 0 {
		t.Fatalf("MaterializeSites = %d", res.MaterializeSites)
	}
	if err := ir.Verify(g); err != nil {
		t.Fatalf("invalid graph: %v", err)
	}
}

// TestTraceOutput checks the analysis trace: fixpoint progress and every
// decision reach an attached backend as typed events.
func TestTraceOutput(t *testing.T) {
	var p testprog.Program
	for _, c := range testprog.Corpus() {
		if c.Name == "partialEscape" {
			p = c
		}
	}
	g, err := build.Build(p.Entry)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[obs.Kind]int{}
	sink := obs.NewSink(obs.FuncBackend(func(e *obs.Event) { seen[e.Kind]++ }))
	if _, err := Run(g, Config{Sink: sink}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []obs.Kind{obs.KindPEARound, obs.KindVirtualize, obs.KindMaterialize, obs.KindPEAFixpoint} {
		if seen[want] == 0 {
			t.Fatalf("trace has no %s event: %v", want, seen)
		}
	}
}
