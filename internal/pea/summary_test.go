package pea

import (
	"testing"

	"pea/internal/bc"
	"pea/internal/build"
	"pea/internal/check"
	"pea/internal/exec"
	"pea/internal/interp"
	"pea/internal/ir"
	"pea/internal/rt"
	"pea/internal/summary"
)

// summaryProg assembles the call-shaped corpus for the CalleeNoEscape
// transfer:
//
//	pad(b, x)    { return x + x }                  // never observes b
//	sink(b)      { S = b }                         // global escape
//	mix(a, b)    { S = a }                         // a escapes, b unobserved
//	keep(x)      { b = new Box; b.v = x; return pad(b, x) + b.v }
//	keepThenSink(x) { b = new Box; b.v = x; t = pad(b, x); sink(b); return t + b.v }
//	bothSlots(x) { b = new Box; b.v = x; mix(b, b); return b.v }
func summaryProg(t *testing.T) *bc.Program {
	t.Helper()
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	vField := box.Field("v", bc.KindInt)
	sinkF := box.Static("S", bc.KindRef)
	c := a.Class("C", "")

	pad := c.Method("pad", []bc.Kind{bc.KindRef, bc.KindInt}, bc.KindInt, true)
	pad.Load(1).Load(1).Add().ReturnValue()

	snk := c.Method("sink", []bc.Kind{bc.KindRef}, bc.KindVoid, true)
	snk.Load(0).PutStatic(sinkF).Return()

	mix := c.Method("mix", []bc.Kind{bc.KindRef, bc.KindRef}, bc.KindVoid, true)
	mix.Load(0).PutStatic(sinkF).Return()

	keep := c.Method("keep", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	bLoc := keep.NewLocal(bc.KindRef)
	keep.New(box.Ref()).Store(bLoc).
		Load(bLoc).Load(0).PutField(vField).
		Load(bLoc).Load(0).InvokeStatic(pad.Ref()).
		Load(bLoc).GetField(vField).Add().ReturnValue()

	kts := c.Method("keepThenSink", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	bLoc2 := kts.NewLocal(bc.KindRef)
	tLoc := kts.NewLocal(bc.KindInt)
	kts.New(box.Ref()).Store(bLoc2).
		Load(bLoc2).Load(0).PutField(vField).
		Load(bLoc2).Load(0).InvokeStatic(pad.Ref()).Store(tLoc).
		Load(bLoc2).InvokeStatic(snk.Ref()).
		Load(tLoc).Load(bLoc2).GetField(vField).Add().ReturnValue()

	both := c.Method("bothSlots", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	bLoc3 := both.NewLocal(bc.KindRef)
	both.New(box.Ref()).Store(bLoc3).
		Load(bLoc3).Load(0).PutField(vField).
		Load(bLoc3).Load(bLoc3).InvokeStatic(mix.Ref()).
		Load(bLoc3).GetField(vField).ReturnValue()

	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// peaWithSummaries builds entry's graph (no inlining — the calls must
// survive to exercise the invoke transfer) and runs PEA with the given
// summary provider under strict self-checking.
func peaWithSummaries(t *testing.T, p *bc.Program, entry string, safeFn func(*ir.Node) []bool) (*ir.Graph, Result) {
	t.Helper()
	m := p.ClassByName("C").MethodByName(entry)
	g, err := build.Build(m)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(g, Config{CalleeNoEscape: safeFn, Check: check.Strict})
	if err != nil {
		t.Fatalf("pea %s: %v\n%s", entry, err, ir.Dump(g))
	}
	if err := ir.Verify(g); err != nil {
		t.Fatalf("pea %s produced invalid graph: %v\n%s", entry, err, ir.Dump(g))
	}
	if err := check.Graph(g, check.Strict); err != nil {
		t.Fatalf("pea %s failed strict check: %v\n%s", entry, err, ir.Dump(g))
	}
	return g, res
}

// runSummaryGraph executes g with callees compiled plain (build only), so
// the callee really runs — a null substituted into an observed slot would
// crash or change the result.
func runSummaryGraph(t *testing.T, p *bc.Program, g *ir.Graph, arg int64) (rt.Value, *rt.Env) {
	t.Helper()
	env := rt.NewEnv(p, 42)
	env.MaxSteps = 1_000_000
	eng := &exec.Engine{Env: env}
	plain := make(map[*bc.Method]*ir.Graph)
	eng.Invoke = func(callee *bc.Method, vals []rt.Value) (rt.Value, error) {
		cg := plain[callee]
		if cg == nil {
			var err error
			cg, err = build.Build(callee)
			if err != nil {
				t.Fatalf("build %s: %v", callee.QualifiedName(), err)
			}
			plain[callee] = cg
		}
		return eng.Run(cg, vals)
	}
	v, err := eng.Run(g, []rt.Value{rt.IntValue(arg)})
	if err != nil {
		t.Fatalf("run: %v\n%s", err, ir.Dump(g))
	}
	return v, env
}

func interpResult(t *testing.T, p *bc.Program, entry string, arg int64) rt.Value {
	t.Helper()
	env := rt.NewEnv(p, 42)
	it := interp.New(env)
	it.Env.MaxSteps = 1_000_000
	m := p.ClassByName("C").MethodByName(entry)
	v, err := it.Call(m, []rt.Value{rt.IntValue(arg)})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestSummaryKeepsVirtualAcrossCall(t *testing.T) {
	p := summaryProg(t)
	sums := summary.Compute(p, summary.Options{})

	// Without summaries the call materializes the Box.
	_, base := peaWithSummaries(t, p, "keep", nil)
	if base.SummaryKeptVirtual != 0 || base.MaterializeSites == 0 {
		t.Fatalf("baseline: kept=%d mats=%d, want 0 kept and >0 materializations",
			base.SummaryKeptVirtual, base.MaterializeSites)
	}

	// With summaries the Box stays virtual: no materialization, the
	// field load is scalar-replaced, the call gets null.
	g, res := peaWithSummaries(t, p, "keep", sums.ArgSafe)
	if res.SummaryKeptVirtual != 1 {
		t.Errorf("SummaryKeptVirtual = %d, want 1", res.SummaryKeptVirtual)
	}
	if res.MaterializeSites != 0 {
		t.Errorf("MaterializeSites = %d, want 0\n%s", res.MaterializeSites, ir.Dump(g))
	}
	if res.VirtualizedAllocs != 1 {
		t.Errorf("VirtualizedAllocs = %d, want 1", res.VirtualizedAllocs)
	}

	// Semantics: same result as the interpreter, zero allocations.
	want := interpResult(t, p, "keep", 21)
	got, env := runSummaryGraph(t, p, g, 21)
	if !want.Equal(got) {
		t.Errorf("keep(21): interp=%v pea=%v", want, got)
	}
	if env.Stats.Allocations != 0 {
		t.Errorf("allocations = %d, want 0 (Box kept virtual)", env.Stats.Allocations)
	}
}

func TestSummaryKeepThenEscapeMaterializesLate(t *testing.T) {
	p := summaryProg(t)
	sums := summary.Compute(p, summary.Options{})
	g, res := peaWithSummaries(t, p, "keepThenSink", sums.ArgSafe)
	// pad's slot is safe (kept virtual), sink's is not (materializes).
	if res.SummaryKeptVirtual != 1 {
		t.Errorf("SummaryKeptVirtual = %d, want 1", res.SummaryKeptVirtual)
	}
	if res.MaterializeSites != 1 {
		t.Errorf("MaterializeSites = %d, want 1 (at sink)\n%s", res.MaterializeSites, ir.Dump(g))
	}
	want := interpResult(t, p, "keepThenSink", 7)
	got, env := runSummaryGraph(t, p, g, 7)
	if !want.Equal(got) {
		t.Errorf("keepThenSink(7): interp=%v pea=%v", want, got)
	}
	if env.Stats.Allocations != 1 {
		t.Errorf("allocations = %d, want 1 (materialized at sink)", env.Stats.Allocations)
	}
}

func TestSummarySameObjectInSafeAndUnsafeSlots(t *testing.T) {
	p := summaryProg(t)
	sums := summary.Compute(p, summary.Options{})
	g, res := peaWithSummaries(t, p, "bothSlots", sums.ArgSafe)
	// mix observes slot 0, so the object materializes in pass 1; pass 2
	// must then pass the real reference, not null, in the safe slot.
	if res.SummaryKeptVirtual != 0 {
		t.Errorf("SummaryKeptVirtual = %d, want 0 (object escaped via unsafe slot)", res.SummaryKeptVirtual)
	}
	want := interpResult(t, p, "bothSlots", 5)
	got, env := runSummaryGraph(t, p, g, 5)
	if !want.Equal(got) {
		t.Errorf("bothSlots(5): interp=%v pea=%v", want, got)
	}
	if env.Stats.Allocations != 1 {
		t.Errorf("allocations = %d, want 1", env.Stats.Allocations)
	}
}
