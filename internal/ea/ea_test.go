package ea

import (
	"testing"

	"pea/internal/bc"
	"pea/internal/build"
	"pea/internal/exec"
	"pea/internal/interp"
	"pea/internal/ir"
	"pea/internal/pea"
	"pea/internal/rt"
	"pea/internal/testprog"
)

func buildGraph(t *testing.T, prog *bc.Program, cls, meth string) *ir.Graph {
	t.Helper()
	g, err := build.Build(prog.ClassByName(cls).MethodByName(meth))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// boxProgram builds `class Box { int v; Box next; static Box sink; }` plus
// one method assembled by body.
func boxProgram(t *testing.T, params []bc.Kind, ret bc.Kind,
	body func(m *bc.MethodAsm, box *bc.ClassAsm, v, next, sink *bc.Field)) *bc.Program {
	t.Helper()
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	v := box.Field("v", bc.KindInt)
	next := box.Field("next", bc.KindRef)
	sink := box.Static("sink", bc.KindRef)
	c := a.Class("C", "")
	m := c.Method("m", params, ret, true)
	body(m, box, v, next, sink)
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAnalyzeNonEscaping(t *testing.T) {
	p := boxProgram(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, next, sink *bc.Field) {
			l := m.NewLocal(bc.KindRef)
			m.New(box.Ref()).Store(l)
			m.Load(l).Load(0).PutField(v)
			m.Load(l).GetField(v).ReturnValue()
		})
	g := buildGraph(t, p, "C", "m")
	allowed := Analyze(g)
	if len(allowed) != 1 {
		t.Fatalf("non-escaping allocation not found: %v", allowed)
	}
}

func TestAnalyzeAllOrNothing(t *testing.T) {
	// The object escapes on one branch only: flow-insensitive EA must
	// reject it entirely (the paper's motivating weakness).
	p := boxProgram(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, next, sink *bc.Field) {
			l := m.NewLocal(bc.KindRef)
			m.New(box.Ref()).Store(l)
			m.Load(0).If(bc.CondEQ, "done")
			m.Load(l).PutStatic(sink)
			m.Label("done").Load(l).GetField(v).ReturnValue()
		})
	g := buildGraph(t, p, "C", "m")
	if allowed := Analyze(g); len(allowed) != 0 {
		t.Fatalf("partially escaping object must not be allowed: %v", allowed)
	}
}

func TestAnalyzeEscapeRoutes(t *testing.T) {
	cases := []struct {
		name string
		body func(m *bc.MethodAsm, box *bc.ClassAsm, v, next, sink *bc.Field)
	}{
		{"static store", func(m *bc.MethodAsm, box *bc.ClassAsm, v, next, sink *bc.Field) {
			m.New(box.Ref()).PutStatic(sink)
			m.Const(0).ReturnValue()
		}},
		{"return", func(m *bc.MethodAsm, box *bc.ClassAsm, v, next, sink *bc.Field) {
			// ret kind is int in driver; use a second ref-returning method.
			m.New(box.Ref()).Pop() // placeholder; the real check below
			m.Const(0).ReturnValue()
		}},
		{"store into unknown", func(m *bc.MethodAsm, box *bc.ClassAsm, v, next, sink *bc.Field) {
			m.GetStatic(sink).New(box.Ref()).PutField(next)
			m.Const(0).ReturnValue()
		}},
	}
	for _, tc := range cases[:1] {
		t.Run(tc.name, func(t *testing.T) {
			p := boxProgram(t, nil, bc.KindInt, tc.body)
			g := buildGraph(t, p, "C", "m")
			if allowed := Analyze(g); len(allowed) != 0 {
				t.Fatalf("escaping object allowed: %v", allowed)
			}
		})
	}
	t.Run("store into unknown", func(t *testing.T) {
		p := boxProgram(t, nil, bc.KindInt, cases[2].body)
		g := buildGraph(t, p, "C", "m")
		if allowed := Analyze(g); len(allowed) != 0 {
			t.Fatalf("object stored into unknown target allowed: %v", allowed)
		}
	})
}

func TestAnalyzeReturnEscapes(t *testing.T) {
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	box.Field("v", bc.KindInt)
	c := a.Class("C", "")
	m := c.Method("m", nil, bc.KindRef, true)
	m.New(box.Ref()).ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g := buildGraph(t, p, "C", "m")
	if allowed := Analyze(g); len(allowed) != 0 {
		t.Fatalf("returned object allowed: %v", allowed)
	}
}

func TestAnalyzeArgumentEscapes(t *testing.T) {
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	box.Field("v", bc.KindInt)
	c := a.Class("C", "")
	callee := c.Method("use", []bc.Kind{bc.KindRef}, bc.KindVoid, true)
	callee.Return()
	m := c.Method("m", nil, bc.KindInt, true)
	m.New(box.Ref()).InvokeStatic(callee.Ref())
	m.Const(0).ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g := buildGraph(t, p, "C", "m")
	if allowed := Analyze(g); len(allowed) != 0 {
		t.Fatalf("call argument allowed: %v", allowed)
	}
}

func TestSetContamination(t *testing.T) {
	// Storing a non-escaping object into another object that escapes
	// drags the whole set into escaping.
	p := boxProgram(t, nil, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, next, sink *bc.Field) {
			outer := m.NewLocal(bc.KindRef)
			inner := m.NewLocal(bc.KindRef)
			m.New(box.Ref()).Store(outer)
			m.New(box.Ref()).Store(inner)
			m.Load(outer).Load(inner).PutField(next)
			m.Load(outer).PutStatic(sink)
			m.Const(0).ReturnValue()
		})
	g := buildGraph(t, p, "C", "m")
	if allowed := Analyze(g); len(allowed) != 0 {
		t.Fatalf("set contamination missed: %v", allowed)
	}
}

func TestRunScalarReplacesLocalObjects(t *testing.T) {
	p := boxProgram(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, next, sink *bc.Field) {
			l := m.NewLocal(bc.KindRef)
			m.New(box.Ref()).Store(l)
			m.Load(l).MonitorEnter()
			m.Load(l).Load(0).PutField(v)
			m.Load(l).MonitorExit()
			m.Load(l).GetField(v).ReturnValue()
		})
	g := buildGraph(t, p, "C", "m")
	res, err := Run(g, pea.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualizedAllocs != 1 || res.ElidedMonitors != 2 {
		t.Fatalf("EA result: %+v", res)
	}
	if err := ir.Verify(g); err != nil {
		t.Fatal(err)
	}
	env := rt.NewEnv(p, 1)
	eng := &exec.Engine{Env: env}
	got, err := eng.Run(g, []rt.Value{rt.IntValue(5)})
	if err != nil {
		t.Fatal(err)
	}
	if got.I != 5 || env.Stats.Allocations != 0 || env.Stats.MonitorOps != 0 {
		t.Fatalf("got %v, stats %+v", got, env.Stats)
	}
}

// TestEAMatchesInterpreterOnCorpus: the baseline is also
// semantics-preserving and never allocates more.
func TestEAMatchesInterpreterOnCorpus(t *testing.T) {
	for _, p := range testprog.Corpus() {
		t.Run(p.Name, func(t *testing.T) {
			graphs := make(map[*bc.Method]*ir.Graph)
			for _, m := range p.Prog.Methods {
				g, err := build.Build(m)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := Run(g, pea.Config{}); err != nil {
					t.Fatalf("%s: %v", m.QualifiedName(), err)
				}
				if err := ir.Verify(g); err != nil {
					t.Fatalf("%s: %v\n%s", m.QualifiedName(), err, ir.Dump(g))
				}
				graphs[m] = g
			}
			for _, args := range p.ArgSets {
				envI := rt.NewEnv(p.Prog, 42)
				it := interp.New(envI)
				it.Env.MaxSteps = 5_000_000
				vals := make([]rt.Value, len(args))
				for i, a := range args {
					vals[i] = rt.IntValue(a)
				}
				vi, errI := it.Call(p.Entry, vals)

				envE := rt.NewEnv(p.Prog, 42)
				envE.MaxSteps = 5_000_000
				eng := &exec.Engine{Env: envE}
				eng.Invoke = func(callee *bc.Method, as []rt.Value) (rt.Value, error) {
					return eng.Run(graphs[callee], as)
				}
				ve, errE := eng.Run(graphs[p.Entry], vals)
				if (errI == nil) != (errE == nil) {
					t.Fatalf("%v: interp err=%v, ea err=%v", args, errI, errE)
				}
				if errI != nil {
					continue
				}
				if !vi.Equal(ve) {
					t.Fatalf("%v: interp=%v ea=%v", args, vi, ve)
				}
				if envE.Stats.Allocations > envI.Stats.Allocations {
					t.Fatalf("%v: EA increased allocations", args)
				}
			}
		})
	}
}
