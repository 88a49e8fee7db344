package opt

import (
	"testing"

	"pea/internal/bc"
	"pea/internal/build"
	"pea/internal/ir"
)

// gvnFixture is an empty graph with three int parameters placed in the
// entry block, plus two classes and two fields to hang on nodes.
type gvnFixture struct {
	g      *ir.Graph
	p      [3]*ir.Node
	classA *bc.Class
	classB *bc.Class
	fieldA *bc.Field
	fieldB *bc.Field
}

func newGVNFixture(t *testing.T) *gvnFixture {
	t.Helper()
	a := bc.NewAssembler()
	ca, cb := a.Class("A", ""), a.Class("B", "")
	fa, fb := ca.Field("f", bc.KindInt), cb.Field("f", bc.KindInt)
	m := ca.Method("m", []bc.Kind{bc.KindInt, bc.KindInt, bc.KindInt}, bc.KindInt, true)
	m.Load(0).ReturnValue()
	if _, err := a.Finish(""); err != nil {
		t.Fatal(err)
	}
	f := &gvnFixture{g: ir.NewGraph(m.Ref()), classA: ca.Ref(), classB: cb.Ref(), fieldA: fa, fieldB: fb}
	for i := range f.p {
		f.p[i] = f.g.NewNode(ir.OpParam, bc.KindInt)
		f.p[i].AuxInt = int64(i)
		f.g.Append(f.g.Entry(), f.p[i])
	}
	return f
}

// ret terminates b with a return of v.
func (f *gvnFixture) ret(b *ir.Block, v *ir.Node) {
	f.g.SetTerm(b, f.g.NewNode(ir.OpReturn, bc.KindVoid, v))
}

// fanOut makes n blocks that entry branches to and that all jump to one
// merge block, which it returns (predecessor i is arm i).
func (f *gvnFixture) fanOut(from *ir.Block, n int) *ir.Block {
	arms := make([]*ir.Block, n)
	for i := range arms {
		arms[i] = f.g.NewBlock()
	}
	f.g.SetTerm(from, f.g.NewNode(ir.OpIf, bc.KindVoid, f.p[0]), arms...)
	merge := f.g.NewBlock()
	for _, arm := range arms {
		f.g.SetTerm(arm, f.g.NewNode(ir.OpGoto, bc.KindVoid), merge)
	}
	return merge
}

func runGVN(t *testing.T, g *ir.Graph) bool {
	t.Helper()
	changed, err := GVN{}.Run(g)
	if err != nil {
		t.Fatal(err)
	}
	return changed
}

// pureShape describes a pure node by the fields the value signature reads.
type pureShape struct {
	op     ir.Op
	kind   bc.Kind
	auxInt int64
	aux2   bc.Op
	cond   bc.Cond
	class  string // "", "A" or "B"
	field  string
	in     [2]int // parameter indices
}

func (f *gvnFixture) place(s pureShape) *ir.Node {
	n := f.g.NewNode(s.op, s.kind, f.p[s.in[0]], f.p[s.in[1]])
	n.AuxInt, n.Aux2, n.Cond = s.auxInt, s.aux2, s.cond
	n.Class = map[string]*bc.Class{"A": f.classA, "B": f.classB}[s.class]
	n.Field = map[string]*bc.Field{"A": f.fieldA, "B": f.fieldB}[s.field]
	return f.g.Append(f.g.Entry(), n)
}

// TestGVNKeyFields: two pure nodes merge exactly when every field of the
// signature agrees. Some shapes are not ones the graph builder emits (a
// compare carrying a field); the table is about the key, not the ops.
func TestGVNKeyFields(t *testing.T) {
	base := pureShape{op: ir.OpCmp, kind: bc.KindInt, auxInt: 7, aux2: bc.OpAdd,
		cond: bc.CondLT, class: "A", field: "A", in: [2]int{0, 1}}
	with := func(edit func(*pureShape)) pureShape {
		s := base
		edit(&s)
		return s
	}
	for _, tc := range []struct {
		name  string
		other pureShape
		merge bool
	}{
		{"identical", base, true},
		{"op", with(func(s *pureShape) { s.op = ir.OpRefEq }), false},
		{"kind", with(func(s *pureShape) { s.kind = bc.KindRef }), false},
		{"auxInt", with(func(s *pureShape) { s.auxInt = 8 }), false},
		{"aux2", with(func(s *pureShape) { s.aux2 = bc.OpSub }), false},
		{"cond", with(func(s *pureShape) { s.cond = bc.CondGE }), false},
		{"class", with(func(s *pureShape) { s.class = "B" }), false},
		{"no class", with(func(s *pureShape) { s.class = "" }), false},
		{"field", with(func(s *pureShape) { s.field = "B" }), false},
		{"one input", with(func(s *pureShape) { s.in[1] = 2 }), false},
		{"inputs swapped", with(func(s *pureShape) { s.in = [2]int{1, 0} }), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newGVNFixture(t)
			a, b := f.place(base), f.place(tc.other)
			f.ret(f.g.Entry(), f.g.Append(f.g.Entry(), f.g.NewNode(ir.OpRefEq, bc.KindInt, a, b)))
			if changed := runGVN(t, f.g); changed != tc.merge {
				t.Fatalf("changed = %v, want %v", changed, tc.merge)
			}
			if merged := b.Block == nil; merged != tc.merge {
				t.Fatalf("merged = %v, want %v\n%s", merged, tc.merge, ir.Dump(f.g))
			}
			if use := f.g.Entry().Term.Inputs[0].Inputs[1]; tc.merge && use != a {
				t.Fatalf("the use of the duplicate reads %s, want %s", use, a)
			}
		})
	}
}

func TestGVNPhis(t *testing.T) {
	t.Run("identical phis of one block merge", func(t *testing.T) {
		f := newGVNFixture(t)
		merge := f.fanOut(f.g.Entry(), 2)
		a := f.g.AddPhi(merge, bc.KindInt, f.p[1], f.p[2])
		b := f.g.AddPhi(merge, bc.KindInt, f.p[1], f.p[2])
		c := f.g.AddPhi(merge, bc.KindInt, f.p[2], f.p[1])
		sum := f.g.Append(merge, f.g.NewNode(ir.OpArith, bc.KindInt, b, c))
		sum.Aux2 = bc.OpAdd
		f.ret(merge, sum)
		runGVN(t, f.g)
		if len(merge.Phis) != 2 || merge.Phis[0] != a || merge.Phis[1] != c || sum.Inputs[0] != a {
			t.Fatalf("want phis %s and %s with the sum reading the first:\n%s", a, c, ir.Dump(f.g))
		}
	})
	t.Run("equal-input phis of different blocks stay apart", func(t *testing.T) {
		f := newGVNFixture(t)
		first := f.fanOut(f.g.Entry(), 2)
		a := f.g.AddPhi(first, bc.KindInt, f.p[1], f.p[2])
		second := f.fanOut(first, 2)
		b := f.g.AddPhi(second, bc.KindInt, f.p[1], f.p[2])
		sum := f.g.Append(second, f.g.NewNode(ir.OpArith, bc.KindInt, a, b))
		sum.Aux2 = bc.OpAdd
		f.ret(second, sum)
		if runGVN(t, f.g) {
			t.Fatalf("phis of different merges were merged:\n%s", ir.Dump(f.g))
		}
	})
	t.Run("wide and nil inputs", func(t *testing.T) {
		const width = gvnInline + 3
		f := newGVNFixture(t)
		merge := f.fanOut(f.g.Entry(), width)
		inputs := func(edit func(in []*ir.Node)) []*ir.Node {
			in := make([]*ir.Node, width)
			for i := range in {
				in[i] = f.p[i%3]
			}
			in[1] = nil
			edit(in)
			return in
		}
		same := func([]*ir.Node) {}
		a := f.g.AddPhi(merge, bc.KindInt, inputs(same)...)
		twin := f.g.AddPhi(merge, bc.KindInt, inputs(same)...)
		// v0 is the node with ID 0: nil must not read as it.
		v0 := f.g.AddPhi(merge, bc.KindInt, inputs(func(in []*ir.Node) { in[1] = f.p[0] })...)
		lastDiffers := f.g.AddPhi(merge, bc.KindInt, inputs(func(in []*ir.Node) { in[width-1] = f.p[(width+1)%3] })...)
		lastNil := f.g.AddPhi(merge, bc.KindInt, inputs(func(in []*ir.Node) { in[width-1] = nil })...)
		if f.p[0].ID != 0 {
			t.Fatalf("fixture: first parameter has ID %d", f.p[0].ID)
		}
		f.ret(merge, twin)
		runGVN(t, f.g)
		want := []*ir.Node{a, v0, lastDiffers, lastNil}
		if len(merge.Phis) != len(want) {
			t.Fatalf("%d phis left, want %d:\n%s", len(merge.Phis), len(want), ir.Dump(f.g))
		}
		for i, phi := range merge.Phis {
			if phi != want[i] {
				t.Fatalf("phi %d is %s, want %s", i, phi, want[i])
			}
		}
		if merge.Term.Inputs[0] != a {
			t.Fatalf("return reads %s, want %s", merge.Term.Inputs[0], a)
		}
	})
}

// TestGVNResolvesThroughPendingSubstitution: the second (a+b)+c reads the
// second a+b, which is itself a duplicate; one run must still see that both
// outer sums are the same value.
func TestGVNResolvesThroughPendingSubstitution(t *testing.T) {
	_, g := buildSingle(t, func(a *bc.Assembler) *bc.MethodAsm {
		m := a.Class("C", "").Method("m", []bc.Kind{bc.KindInt, bc.KindInt, bc.KindInt}, bc.KindInt, true)
		m.Load(0).Load(1).Add().Load(2).Add()
		m.Load(0).Load(1).Add().Load(2).Add()
		m.Mul().ReturnValue()
		return m
	})
	if !runGVN(t, g) {
		t.Fatal("nothing merged")
	}
	if adds := countOps(g, ir.OpArith) - 1; adds != 2 {
		t.Fatalf("one GVN run left %d adds, want 2:\n%s", adds, ir.Dump(g))
	}
	if err := ir.Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestGVNReportsPrunedBlocks(t *testing.T) {
	f := newGVNFixture(t)
	f.ret(f.g.Entry(), f.p[0])
	f.ret(f.g.NewBlock(), f.p[1]) // unreachable
	if !runGVN(t, f.g) {
		t.Fatal("a run that removed a dead block reported no change")
	}
	if len(f.g.Blocks) != 1 {
		t.Fatalf("%d blocks left", len(f.g.Blocks))
	}
	if runGVN(t, f.g) {
		t.Fatal("second run reported a change")
	}
}

// TestInlinerBuildsEachCalleeOnce: a callee spliced in at two sites is
// built once, and cloning it leaves the kept graph as it was built.
func TestInlinerBuildsEachCalleeOnce(t *testing.T) {
	a := bc.NewAssembler()
	c := a.Class("C", "")
	callee := c.Method("pick", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	callee.Load(0).If(bc.CondNE, "nz").Const(1).ReturnValue()
	callee.Label("nz").Load(0).Const(3).Mul().ReturnValue()
	caller := c.Method("m", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	caller.Load(0).InvokeStatic(callee.Ref()).InvokeStatic(callee.Ref()).ReturnValue()
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := build.Build(caller.Ref())
	if err != nil {
		t.Fatal(err)
	}
	var built []*ir.Graph
	var asBuilt string
	in := &Inliner{Program: prog, BuildGraph: func(m *bc.Method) (*ir.Graph, error) {
		cg, err := build.Build(m)
		if err == nil {
			built = append(built, cg)
			asBuilt = ir.Dump(cg)
		}
		return cg, err
	}}
	if _, err := in.Run(g); err != nil {
		t.Fatal(err)
	}
	if got := countOps(g, ir.OpInvoke); got != 0 {
		t.Fatalf("%d invokes left:\n%s", got, ir.Dump(g))
	}
	if len(built) != 1 {
		t.Fatalf("callee built %d times for two sites, want 1", len(built))
	}
	if got := ir.Dump(built[0]); got != asBuilt {
		t.Fatalf("inlining wrote to the callee graph it cloned\n--- as built ---\n%s--- after two splices ---\n%s", asBuilt, got)
	}
	if err := ir.Verify(g); err != nil {
		t.Fatal(err)
	}
}

// redundantMethod builds a method that computes x+y, (x+y)*x and a
// comparison of the two n times over and stores each result to a static:
// 3n pure nodes of which all but three are redundant, and n frame states.
func redundantMethod(t testing.TB, n int) *bc.Method {
	t.Helper()
	a := bc.NewAssembler()
	c := a.Class("C", "")
	sink := c.Static("sink", bc.KindInt)
	m := c.Method("m", []bc.Kind{bc.KindInt, bc.KindInt}, bc.KindInt, true)
	for i := 0; i < n; i++ {
		m.Load(0).Load(1).Add().Dup().Load(0).Mul().Cmp(bc.CondLT).PutStatic(sink)
	}
	m.Load(0).ReturnValue()
	if _, err := a.Finish(""); err != nil {
		t.Fatal(err)
	}
	return m.Ref()
}

// TestMidEndAllocationsScaleLinearly guards the cost model of the mid-end
// without reading a clock: four times the redundant expressions may cost at
// most five times the allocations of the standard pipeline. A phase that
// walks the graph, or fills a map, once per edit instead of once per run
// fails it.
func TestMidEndAllocationsScaleLinearly(t *testing.T) {
	optAllocs := func(n int) float64 {
		m := redundantMethod(t, n)
		run := func(optimize bool) float64 {
			return testing.AllocsPerRun(5, func() {
				g, err := build.Build(m)
				if err != nil {
					t.Fatal(err)
				}
				if !optimize {
					return
				}
				if err := Standard().Run(g); err != nil {
					t.Fatal(err)
				}
				if adds := countOps(g, ir.OpArith); adds != 2 {
					t.Fatalf("%d arithmetic nodes left, want 2", adds)
				}
			})
		}
		return run(true) - run(false)
	}
	const n = 100
	small, large := optAllocs(n), optAllocs(4*n)
	t.Logf("opt.Standard allocations: %.0f for %d expressions, %.0f for %d (x%.2f)", small, n, large, 4*n, large/small)
	if large > 5*small {
		t.Fatalf("allocations grew x%.2f for x4 the expressions: some phase pays per edit, not per run", large/small)
	}
}
