package pea

import (
	"strings"
	"testing"

	"pea/internal/bc"
	"pea/internal/build"
	"pea/internal/exec"
	"pea/internal/ir"
	"pea/internal/rt"
)

// figureProgram assembles a single static method C.m and returns its
// PEA-transformed graph together with the program. The body builder
// receives the method assembler and the Box class (fields v:int, ref:ref)
// with a static sink.
func figureProgram(t *testing.T, params []bc.Kind, ret bc.Kind,
	body func(m *bc.MethodAsm, box *bc.ClassAsm, v, ref, sink *bc.Field)) (*bc.Program, *ir.Graph, Result) {
	t.Helper()
	prog, g := figureGraph(t, params, ret, body)
	res, err := Run(g, Config{})
	if err != nil {
		t.Fatalf("pea: %v\n%s", err, ir.Dump(g))
	}
	if err := ir.Verify(g); err != nil {
		t.Fatalf("invalid graph: %v\n%s", err, ir.Dump(g))
	}
	return prog, g, res
}

// figureGraph assembles C.m like figureProgram and returns its graph as
// the builder left it, before PEA.
func figureGraph(t *testing.T, params []bc.Kind, ret bc.Kind,
	body func(m *bc.MethodAsm, box *bc.ClassAsm, v, ref, sink *bc.Field)) (*bc.Program, *ir.Graph) {
	t.Helper()
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	v := box.Field("v", bc.KindInt)
	ref := box.Field("ref", bc.KindRef)
	sink := box.Static("sink", bc.KindRef)
	c := a.Class("C", "")
	m := c.Method("m", params, ret, true)
	body(m, box, v, ref, sink)
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := build.Build(prog.ClassByName("C").MethodByName("m"))
	if err != nil {
		t.Fatal(err)
	}
	return prog, g
}

func count(g *ir.Graph, op ir.Op) int {
	n := 0
	g.ForEachNode(func(_ *ir.Block, x *ir.Node) {
		if x.Op == op {
			n++
		}
	})
	return n
}

func execGraph(t *testing.T, prog *bc.Program, g *ir.Graph, args ...int64) (rt.Value, *rt.Env) {
	t.Helper()
	env := rt.NewEnv(prog, 1)
	env.MaxSteps = 1_000_000
	eng := &exec.Engine{Env: env}
	vals := make([]rt.Value, len(args))
	for i, a := range args {
		vals[i] = rt.IntValue(a)
	}
	v, err := eng.Run(g, vals)
	if err != nil {
		t.Fatalf("exec: %v\n%s", err, ir.Dump(g))
	}
	return v, env
}

// TestFig4aNewAllocation: an allocation introduces a virtual object and
// disappears from the IR.
func TestFig4aNewAllocation(t *testing.T) {
	prog, g, res := figureProgram(t, nil, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, ref, sink *bc.Field) {
			m.New(box.Ref()).Pop().Const(7).ReturnValue()
		})
	if res.VirtualizedAllocs != 1 || count(g, ir.OpNew) != 0 {
		t.Fatalf("allocation survived:\n%s", ir.Dump(g))
	}
	got, env := execGraph(t, prog, g)
	if got.I != 7 || env.Stats.Allocations != 0 {
		t.Fatalf("got %v, %d allocations", got, env.Stats.Allocations)
	}
}

// TestFig4bStoreLoad: stores update the virtual state; loads read it; the
// default field value is the type's zero.
func TestFig4bStoreLoad(t *testing.T) {
	prog, g, res := figureProgram(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, ref, sink *bc.Field) {
			l := m.NewLocal(bc.KindRef)
			m.New(box.Ref()).Store(l)
			// read default (0), then store x, then read back
			m.Load(l).GetField(v) // 0
			m.Load(l).Load(0).PutField(v)
			m.Load(l).GetField(v).Add().ReturnValue() // 0 + x
		})
	if count(g, ir.OpLoadField) != 0 || count(g, ir.OpStoreField) != 0 {
		t.Fatalf("field traffic survived:\n%s", ir.Dump(g))
	}
	if res.ScalarizedLoads != 2 {
		t.Fatalf("scalarized loads = %d", res.ScalarizedLoads)
	}
	got, env := execGraph(t, prog, g, 42)
	if got.I != 42 || env.Stats.Allocations != 0 {
		t.Fatalf("got %v, %d allocations", got, env.Stats.Allocations)
	}
}

// TestFig4cdMonitors: enter/exit on a virtual object adjust the lock count
// and vanish.
func TestFig4cdMonitors(t *testing.T) {
	prog, g, res := figureProgram(t, nil, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, ref, sink *bc.Field) {
			l := m.NewLocal(bc.KindRef)
			m.New(box.Ref()).Store(l)
			m.Load(l).MonitorEnter()
			m.Load(l).MonitorEnter()
			m.Load(l).MonitorExit()
			m.Load(l).MonitorExit()
			m.Const(1).ReturnValue()
		})
	if res.ElidedMonitors != 4 || count(g, ir.OpMonitorEnter)+count(g, ir.OpMonitorExit) != 0 {
		t.Fatalf("monitors survived:\n%s", ir.Dump(g))
	}
	_, env := execGraph(t, prog, g)
	if env.Stats.MonitorOps != 0 {
		t.Fatalf("monitor ops = %d", env.Stats.MonitorOps)
	}
}

// TestFig4efVirtualIntoVirtual: storing a virtual object into another
// virtual object records the id in the field; loading it back recognizes
// the alias. Both allocations disappear.
func TestFig4efVirtualIntoVirtual(t *testing.T) {
	prog, g, _ := figureProgram(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, ref, sink *bc.Field) {
			outer := m.NewLocal(bc.KindRef)
			inner := m.NewLocal(bc.KindRef)
			m.New(box.Ref()).Store(inner)
			m.Load(inner).Load(0).PutField(v)
			m.New(box.Ref()).Store(outer)
			m.Load(outer).Load(inner).PutField(ref) // Figure 4e
			// Figure 4f: load the inner object back and read through it.
			m.Load(outer).GetField(ref).GetField(v).ReturnValue()
		})
	if count(g, ir.OpNew) != 0 {
		t.Fatalf("allocations survived:\n%s", ir.Dump(g))
	}
	got, env := execGraph(t, prog, g, 13)
	if got.I != 13 || env.Stats.Allocations != 0 {
		t.Fatalf("got %v, %d allocations", got, env.Stats.Allocations)
	}
}

// TestFig5StoreIntoEscaped: storing a virtual object into an escaped
// object materializes the stored value; the store itself remains.
func TestFig5StoreIntoEscaped(t *testing.T) {
	prog, g, res := figureProgram(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, ref, sink *bc.Field) {
			esc := m.NewLocal(bc.KindRef)
			tmp := m.NewLocal(bc.KindRef)
			m.New(box.Ref()).Store(esc)
			m.Load(esc).PutStatic(sink) // esc escapes (materialized here)
			m.New(box.Ref()).Store(tmp)
			m.Load(tmp).Load(0).PutField(v)
			m.Load(esc).Load(tmp).PutField(ref) // Figure 5: store virtual into escaped
			m.GetStatic(sink).GetField(ref).GetField(v).ReturnValue()
		})
	if res.MaterializeSites != 2 {
		t.Fatalf("materialize sites = %d:\n%s", res.MaterializeSites, ir.Dump(g))
	}
	if count(g, ir.OpStoreField) == 0 {
		t.Fatalf("the store into the escaped object must remain:\n%s", ir.Dump(g))
	}
	got, env := execGraph(t, prog, g, 5)
	if got.I != 5 {
		t.Fatalf("got %v", got)
	}
	if env.Stats.Allocations != 2 {
		t.Fatalf("allocations = %d, want 2 (both escape)", env.Stats.Allocations)
	}
}

// TestFig6aDeadObjectLeavesState: an object with no surviving alias does
// not outlive the merge — in particular a mixed virtual/escaped merge of a
// dead object must not materialize it on the virtual path.
func TestFig6aDeadObjectLeavesState(t *testing.T) {
	prog, g, _ := figureProgram(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, ref, sink *bc.Field) {
			l := m.NewLocal(bc.KindRef)
			m.New(box.Ref()).Store(l)
			m.Load(l).Load(0).PutField(v)
			m.Load(0).If(bc.CondNE, "esc")
			m.Const(1).Goto("join")
			m.Label("esc").Load(l).PutStatic(sink).Const(2)
			// After the join the object is dead: no materialization on
			// the non-escaping path.
			m.Label("join").ReturnValue()
		})
	_ = g
	_, env := execGraph(t, prog, g, 0) // non-escaping path
	if env.Stats.Allocations != 0 {
		t.Fatalf("dead object materialized at merge: %d allocations\n%s",
			env.Stats.Allocations, ir.Dump(g))
	}
	_, env = execGraph(t, prog, g, 1) // escaping path
	if env.Stats.Allocations != 1 {
		t.Fatalf("escaping path allocations = %d", env.Stats.Allocations)
	}
}

// TestFig6bEscapedMergePhi: an object escaped in both predecessors with
// different materialized values merges through a phi of the materialized
// values.
func TestFig6bEscapedMergePhi(t *testing.T) {
	prog, g, res := figureProgram(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, ref, sink *bc.Field) {
			l := m.NewLocal(bc.KindRef)
			m.New(box.Ref()).Store(l)
			m.Load(l).Load(0).PutField(v)
			m.Load(0).If(bc.CondNE, "b")
			m.Load(l).PutStatic(sink)
			m.Goto("join")
			m.Label("b").Load(l).PutStatic(sink)
			// The object is alive after the merge (read below), escaped
			// on both paths at distinct materialization sites.
			m.Label("join").Load(l).GetField(v).ReturnValue()
		})
	if res.MaterializeSites != 2 {
		t.Fatalf("materialize sites = %d:\n%s", res.MaterializeSites, ir.Dump(g))
	}
	// A ref phi merging the two materialized values must exist.
	foundPhi := false
	g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
		if n.Op == ir.OpPhi && n.Kind == bc.KindRef {
			mats := 0
			for _, in := range n.Inputs {
				if in.Op == ir.OpMaterialize {
					mats++
				}
			}
			if mats == len(n.Inputs) {
				foundPhi = true
			}
		}
	})
	if !foundPhi {
		t.Fatalf("no phi of materialized values:\n%s", ir.Dump(g))
	}
	got, env := execGraph(t, prog, g, 1)
	if got.I != 1 || env.Stats.Allocations != 1 {
		t.Fatalf("got %v, allocations %d", got, env.Stats.Allocations)
	}
}

// TestFig6cPhiAlias: a pre-existing phi whose inputs all alias the same
// virtual object becomes an alias itself; the object stays virtual through
// the merge.
func TestFig6cPhiAlias(t *testing.T) {
	prog, g, _ := figureProgram(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, ref, sink *bc.Field) {
			l := m.NewLocal(bc.KindRef)
			o := m.NewLocal(bc.KindRef)
			m.New(box.Ref()).Store(l)
			m.Load(l).Load(0).PutField(v)
			// Both branches copy the same object into o: the phi for o
			// aliases the virtual object.
			m.Load(0).If(bc.CondNE, "b")
			m.Load(l).Store(o).Goto("join")
			m.Label("b").Load(l).Store(o)
			m.Label("join").Load(o).GetField(v).ReturnValue()
		})
	if count(g, ir.OpNew)+count(g, ir.OpMaterialize) != 0 {
		t.Fatalf("object not virtual through the merge:\n%s", ir.Dump(g))
	}
	got, env := execGraph(t, prog, g, 9)
	if got.I != 9 || env.Stats.Allocations != 0 {
		t.Fatalf("got %v, allocations %d", got, env.Stats.Allocations)
	}
}

// TestFig7LoopFixpoint: the paper's Figure 7 — a loop with two back edges.
// An object allocated before the loop, mutated inside it, and read after
// it stays virtual; the analysis needs more than one round to reach the
// fixpoint.
func TestFig7LoopFixpoint(t *testing.T) {
	prog, g, res := figureProgram(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, ref, sink *bc.Field) {
			l := m.NewLocal(bc.KindRef)
			i := m.NewLocal(bc.KindInt)
			m.New(box.Ref()).Store(l)
			m.Load(l).Const(0).PutField(v)
			m.Const(0).Store(i)
			m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
			m.Load(i).Const(1).Add().Store(i)
			// First back edge: skip odd values.
			m.Load(i).Const(2).Rem().If(bc.CondNE, "head")
			m.Load(l).Load(l).GetField(v).Load(i).Add().PutField(v)
			// Second back edge.
			m.Goto("head")
			m.Label("done").Load(l).GetField(v).ReturnValue()
		})
	if res.Rounds < 2 {
		t.Fatalf("loop fixpoint took %d rounds, expected iteration", res.Rounds)
	}
	if count(g, ir.OpNew)+count(g, ir.OpMaterialize) != 0 {
		t.Fatalf("loop-carried object not virtualized:\n%s", ir.Dump(g))
	}
	got, env := execGraph(t, prog, g, 10)
	if got.I != 2+4+6+8+10 || env.Stats.Allocations != 0 {
		t.Fatalf("got %v, allocations %d", got, env.Stats.Allocations)
	}
}

// TestFig8FrameStateVirtualization: frame states of surviving effects
// reference the virtual object through an OpVirtualObject node plus a
// VirtualObjectState descriptor holding the current field values (and the
// elided lock depth).
func TestFig8FrameStateVirtualization(t *testing.T) {
	_, g, _ := figureProgram(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, ref, sink *bc.Field) {
			l := m.NewLocal(bc.KindRef)
			m.New(box.Ref()).Store(l)
			m.Load(l).MonitorEnter()
			m.Load(l).Load(0).PutField(v)
			// A surviving side effect whose frame state must describe
			// the virtual object (locked, field = x).
			m.Load(0).Print()
			m.Load(l).MonitorExit()
			m.Load(l).GetField(v).ReturnValue()
		})
	var printNode *ir.Node
	g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
		if n.Op == ir.OpPrint {
			printNode = n
		}
	})
	if printNode == nil || printNode.FrameState == nil {
		t.Fatalf("print node or state missing:\n%s", ir.Dump(g))
	}
	fs := printNode.FrameState
	if len(fs.VirtualObjects) != 1 {
		t.Fatalf("frame state has %d virtual object descriptors:\n%s", len(fs.VirtualObjects), fs)
	}
	vo := fs.VirtualObjects[0]
	if vo.Object.Op != ir.OpVirtualObject || vo.Object.Class.Name != "Box" {
		t.Fatalf("descriptor object wrong: %s", vo.Object)
	}
	if vo.LockDepth != 1 {
		t.Fatalf("descriptor lock depth = %d, want 1 (elided monitor)", vo.LockDepth)
	}
	if len(vo.Values) != 2 || vo.Values[0].Op != ir.OpParam {
		t.Fatalf("descriptor values wrong: %v", vo.Values)
	}
	// The local slot holding the object now references the virtual node.
	refsVirtual := false
	for _, loc := range fs.Locals {
		if loc != nil && loc.Op == ir.OpVirtualObject {
			refsVirtual = true
		}
	}
	if !refsVirtual {
		t.Fatalf("no local references the virtual object: %s", fs)
	}
}

// TestFigure2IRShape: the inlined cacheKey example (built in the exec
// differential corpus as hand-inlined bytecode) contains, before PEA, the
// node kinds Figure 2 shows — New, field stores, monitor enter/exit, loads
// of the cache, a merge with a phi — and after PEA only the miss-branch
// materialization remains.
func TestFigure2IRShape(t *testing.T) {
	prog, g, _ := figureProgram(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, ref, sink *bc.Field) {
			// Listing 5 shape: alloc, init, synchronized compare, branch.
			k := m.NewLocal(bc.KindRef)
			tmp2 := m.NewLocal(bc.KindInt)
			m.New(box.Ref()).Store(k)
			m.Load(k).Load(0).PutField(v)
			m.Load(k).MonitorEnter()
			m.GetStatic(sink).IfNull(bc.CondEQ, "ne")
			m.Load(k).GetField(v).GetStatic(sink).GetField(v).IfCmp(bc.CondNE, "ne")
			m.Const(1).Store(tmp2).Goto("x")
			m.Label("ne").Const(0).Store(tmp2)
			m.Label("x").Load(k).MonitorExit()
			m.Load(tmp2).If(bc.CondEQ, "miss")
			m.Load(0).ReturnValue()
			m.Label("miss").Load(k).PutStatic(sink)
			m.Load(0).Const(31).Mul().ReturnValue()
		})
	dump := ir.Dump(g)
	for _, want := range []string{"Materialize Box", "StoreStatic Box.sink"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("dump missing %q:\n%s", want, dump)
		}
	}
	for _, gone := range []string{"MonitorEnter", "MonitorExit", "= New "} {
		if strings.Contains(dump, gone) {
			t.Fatalf("dump still contains %q:\n%s", gone, dump)
		}
	}
	// Hit path allocates nothing; miss path allocates once.
	_, env := execGraph(t, prog, g, 5)
	if env.Stats.Allocations != 1 { // first call always misses (cache empty)
		t.Fatalf("first call should miss once, allocations = %d", env.Stats.Allocations)
	}
}
