package ir

import (
	"strings"
	"testing"

	"pea/internal/bc"
)

// tinyMethod builds a minimal linked method for graph tests.
func tinyMethod(t *testing.T) (*bc.Program, *bc.Method, *bc.Class) {
	t.Helper()
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	box.Field("v", bc.KindInt)
	c := a.Class("C", "")
	m := c.Method("m", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	m.Load(0).ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	return p, p.ClassByName("C").MethodByName("m"), p.ClassByName("Box")
}

// straightGraph builds: entry { p0 = Param; c = Const 2; r = p0*c; return r }
func straightGraph(t *testing.T) (*Graph, *Node, *Node, *Node) {
	t.Helper()
	_, m, _ := tinyMethod(t)
	g := NewGraph(m)
	b := g.Entry()
	p := g.NewNode(OpParam, bc.KindInt)
	g.Append(b, p)
	c := g.ConstInt(b, 2)
	mul := g.NewNode(OpArith, bc.KindInt, p, c)
	mul.Aux2 = bc.OpMul
	g.Append(b, mul)
	ret := g.NewNode(OpReturn, bc.KindVoid, mul)
	g.SetTerm(b, ret)
	return g, p, c, mul
}

func TestVerifyAcceptsValidGraph(t *testing.T) {
	g, _, _, _ := straightGraph(t)
	if err := Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRejections(t *testing.T) {
	cases := []struct {
		name  string
		mlt   func(g *Graph)
		wants string
	}{
		{"missing terminator", func(g *Graph) { g.Entry().Term = nil }, "no terminator"},
		{"nil input", func(g *Graph) { g.Entry().Nodes[2].Inputs[0] = nil }, "nil input"},
		{"unplaced input", func(g *Graph) {
			orphan := g.NewNode(OpConst, bc.KindInt)
			g.Entry().Nodes[2].Inputs[0] = orphan
		}, "not placed"},
		{"wrong block pointer", func(g *Graph) { g.Entry().Nodes[0].Block = nil }, "has Block"},
		{"terminator in body", func(g *Graph) {
			ret := g.NewNode(OpReturn, bc.KindVoid)
			ret.Block = g.Entry()
			g.Entry().Nodes = append(g.Entry().Nodes, ret)
		}, "contains terminator"},
		{"if without two succs", func(g *Graph) {
			b := g.Entry()
			iff := g.NewNode(OpIf, bc.KindVoid, b.Nodes[0])
			iff.Block = b
			b.Term = iff
		}, "has 0 succs"},
		{"input from another graph with a colliding ID", func(g *Graph) {
			other, _, _, _ := straightGraph(t)
			g.Entry().Nodes[2].Inputs[0] = other.Entry().Nodes[0]
		}, "not placed"},
		{"two placed nodes share an ID", func(g *Graph) {
			g.Entry().Nodes[1].ID = g.Entry().Nodes[0].ID
		}, "share ID"},
		{"node ID out of range", func(g *Graph) { g.Entry().Nodes[0].ID = 1 << 30 }, "outside the graph's range"},
		{"negative node ID", func(g *Graph) { g.Entry().Nodes[0].ID = -1 }, "outside the graph's range"},
		{"block ID out of range", func(g *Graph) { g.Entry().ID = 1 << 30 }, "outside the graph's range"},
		{"bad arity", func(g *Graph) {
			g.Entry().Nodes[2].Inputs = g.Entry().Nodes[2].Inputs[:1]
		}, "has 1 inputs, want 2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, _, _, _ := straightGraph(t)
			tc.mlt(g)
			err := Verify(g)
			if err == nil || !strings.Contains(err.Error(), tc.wants) {
				t.Fatalf("got %v, want error containing %q", err, tc.wants)
			}
		})
	}
}

// TestSubstituteIncludingFrameStates: a substitution rewrites node inputs
// and frame-state references alike.
func TestSubstituteIncludingFrameStates(t *testing.T) {
	g, p, c, mul := straightGraph(t)
	fs := &FrameState{
		Method: g.Method,
		BCI:    0,
		Locals: []*Node{p},
		Stack:  []*Node{mul},
	}
	eff := g.NewNode(OpPrint, bc.KindVoid, p)
	eff.FrameState = fs
	g.InsertBefore(g.Entry(), eff, g.Entry().Nodes[2])

	repl := g.ConstInt(g.Entry(), 99)
	g.RemoveNode(p)
	var sub Substitution
	sub.Add(g, p, repl)
	g.Substitute(sub)
	if mul.Inputs[0] != repl {
		t.Fatal("node input not replaced")
	}
	if eff.Inputs[0] != repl {
		t.Fatal("effect input not replaced")
	}
	if fs.Locals[0] != repl {
		t.Fatal("frame state local not replaced")
	}
	if c.AuxInt != 2 {
		t.Fatal("unrelated node touched")
	}
}

// TestSubstituteFollowsChains: one walk leaves what one walk per entry would
// — through a chain of substitutions, and in a frame state that two nodes
// and two chains share.
func TestSubstituteFollowsChains(t *testing.T) {
	g, p, c, mul := straightGraph(t)
	outer := &FrameState{Method: g.Method, Locals: []*Node{p}}
	shared := &FrameState{Method: g.Method, Locals: []*Node{p, c}, Stack: []*Node{mul}, Outer: outer}
	other := &FrameState{Method: g.Method, Locals: []*Node{c}, Outer: outer}
	var effects []*Node
	for _, fs := range []*FrameState{shared, shared, other} {
		eff := g.NewNode(OpPrint, bc.KindVoid, c)
		eff.FrameState = fs
		g.InsertBefore(g.Entry(), eff, nil)
		effects = append(effects, eff)
	}
	mid, end := g.ConstInt(g.Entry(), 7), g.ConstInt(g.Entry(), 9)
	g.RemoveNode(c)
	g.RemoveNode(mid)
	var sub Substitution
	sub.Add(g, c, mid)
	sub.Add(g, mid, end)
	g.Substitute(sub)
	for _, eff := range effects {
		if eff.Inputs[0] != end {
			t.Fatalf("%s not rewritten to the end of the chain", eff)
		}
	}
	if mul.Inputs[0] != p || mul.Inputs[1] != end {
		t.Fatalf("mul reads %s, %s", mul.Inputs[0], mul.Inputs[1])
	}
	if shared.Locals[0] != p || shared.Locals[1] != end || shared.Stack[0] != mul || other.Locals[0] != end || outer.Locals[0] != p {
		t.Fatalf("frame states: shared %s, other %s", shared, other)
	}
	if got := g.UseCounts(); got[end.ID] != 6 || got[p.ID] != 3 || got[c.ID] != 0 {
		t.Fatalf("use counts: end %d (want 6: mul, three prints, two states), p %d (want 3: mul, shared, outer once), c %d",
			got[end.ID], got[p.ID], got[c.ID])
	}
}

// TestSubstitutionGrowsForNewNodes: a node created after a substitution's
// first Add can still be replaced, and resolves through the chain it joins.
func TestSubstitutionGrowsForNewNodes(t *testing.T) {
	g, p, c, _ := straightGraph(t)
	var sub Substitution
	sub.Add(g, c, p)
	late := g.NewNode(OpConst, bc.KindInt)
	sub.Add(g, late, c)
	if got := sub.Resolve(late); got != p {
		t.Fatalf("late node resolves to %s, want %s", got, p)
	}
	if got := sub.Resolve(g.NewNode(OpConst, bc.KindInt)); got == p {
		t.Fatal("a node never added resolves to a replacement")
	}
}

func TestUsageCountsIncludeFrameStates(t *testing.T) {
	g, p, c, mul := straightGraph(t)
	outer := &FrameState{Method: g.Method, BCI: 0, Locals: []*Node{p}, Stack: nil}
	fs := &FrameState{
		Method: g.Method, BCI: 0,
		Locals: []*Node{p}, Stack: []*Node{c},
		Outer: outer,
		VirtualObjects: []*VirtualObjectState{{
			Object: func() *Node {
				vo := g.NewNode(OpVirtualObject, bc.KindRef)
				g.Append(g.Entry(), vo)
				return vo
			}(),
			Values: []*Node{mul},
		}},
	}
	eff := g.NewNode(OpRand, bc.KindInt)
	eff.FrameState = fs
	g.InsertBefore(g.Entry(), eff, nil)

	counts := g.UseCounts()
	// p: mul input + two frame state locals (inner+outer).
	if counts[p.ID] != 3 {
		t.Fatalf("param count = %d, want 3", counts[p.ID])
	}
	if counts[c.ID] < 2 { // mul input + fs stack
		t.Fatalf("const count = %d", counts[c.ID])
	}
	if counts[mul.ID] < 2 { // return input + virtual object value
		t.Fatalf("mul count = %d", counts[mul.ID])
	}
}

func TestRemoveDeadBlocksPrunesPhis(t *testing.T) {
	_, m, _ := tinyMethod(t)
	g := NewGraph(m)
	entry := g.Entry()
	p := g.NewNode(OpParam, bc.KindInt)
	g.Append(entry, p)
	b1 := g.NewBlock()
	b2 := g.NewBlock()
	join := g.NewBlock()
	cmp := g.NewNode(OpCmp, bc.KindInt, p, p)
	g.Append(entry, cmp)
	g.SetTerm(entry, g.NewNode(OpIf, bc.KindVoid, cmp), b1, b2)
	c1 := g.ConstInt(b1, 1)
	c2 := g.ConstInt(b2, 2)
	g.SetTerm(b1, g.NewNode(OpGoto, bc.KindVoid), join)
	g.SetTerm(b2, g.NewNode(OpGoto, bc.KindVoid), join)
	phi := g.AddPhi(join, bc.KindInt, c1, c2)
	g.SetTerm(join, g.NewNode(OpReturn, bc.KindVoid, phi))
	if err := Verify(g); err != nil {
		t.Fatal(err)
	}
	// Cut the edge entry->b2 by rewriting the If into a Goto.
	gt := g.NewNode(OpGoto, bc.KindVoid)
	gt.Block = entry
	entry.Term = gt
	entry.Succs = []*Block{b1}
	for i, pr := range b2.Preds {
		if pr == entry {
			b2.Preds = append(b2.Preds[:i], b2.Preds[i+1:]...)
		}
	}
	if !g.RemoveDeadBlocks() {
		t.Fatal("nothing removed")
	}
	if len(phi.Inputs) != 1 || phi.Inputs[0] != c1 {
		t.Fatalf("phi inputs not pruned: %v", phi.Inputs)
	}
	if err := Verify(g); err != nil {
		t.Fatal(err)
	}
}

func TestFrameStateCopyIsDeep(t *testing.T) {
	g, p, c, mul := straightGraph(t)
	_ = g
	outer := &FrameState{Method: g.Method, BCI: 0, Locals: []*Node{p}}
	fs := &FrameState{
		Method: g.Method, BCI: 0,
		Locals: []*Node{p, c}, Stack: []*Node{mul}, Outer: outer,
		VirtualObjects: []*VirtualObjectState{{Object: p, Values: []*Node{c}, LockDepth: 2}},
	}
	cp := fs.Copy()
	cp.Locals[0] = nil
	cp.Outer.Locals[0] = nil
	cp.VirtualObjects[0].Values[0] = nil
	if fs.Locals[0] != p || fs.Outer.Locals[0] != p || fs.VirtualObjects[0].Values[0] != c {
		t.Fatal("Copy aliased the original")
	}
	if cp.VirtualObjects[0].LockDepth != 2 || cp.Depth() != 2 {
		t.Fatal("Copy lost fields")
	}
}

func TestDumpFormat(t *testing.T) {
	g, _, _, _ := straightGraph(t)
	d := Dump(g)
	for _, want := range []string{"graph C.m", "b0:", "Param", "Arith mul", "Return"} {
		if !strings.Contains(d, want) {
			t.Fatalf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestInsertBeforePositions(t *testing.T) {
	g, _, _, mul := straightGraph(t)
	b := g.Entry()
	n := g.NewNode(OpConst, bc.KindInt)
	g.InsertBefore(b, n, mul)
	idx := -1
	for i, x := range b.Nodes {
		if x == n {
			idx = i
		}
	}
	if idx == -1 || b.Nodes[idx+1] != mul {
		t.Fatalf("node not inserted before target: %v", b.Nodes)
	}
	tail := g.NewNode(OpConst, bc.KindInt)
	g.InsertBefore(b, tail, nil)
	if b.Nodes[len(b.Nodes)-1] != tail {
		t.Fatal("nil position should append")
	}
}

func TestOpClassification(t *testing.T) {
	if !OpIf.IsTerminator() || !OpDeopt.IsTerminator() || OpNew.IsTerminator() {
		t.Fatal("terminator classification wrong")
	}
	if !OpPhi.IsPure() || OpNew.IsPure() || OpLoadField.IsPure() {
		t.Fatal("purity classification wrong")
	}
	if !OpInvoke.HasSideEffect() || OpNew.HasSideEffect() || OpMaterialize.HasSideEffect() {
		t.Fatal("side effect classification wrong")
	}
	div := &Node{Op: OpArith, Aux2: bc.OpDiv}
	if div.Pure() {
		t.Fatal("division must not be pure (it traps)")
	}
	add := &Node{Op: OpArith, Aux2: bc.OpAdd}
	if !add.Pure() {
		t.Fatal("addition is pure")
	}
}

func TestNodeString(t *testing.T) {
	_, _, box := tinyMethod(t)
	n := &Node{ID: 7, Op: OpNew, Class: box}
	if got := n.String(); !strings.Contains(got, "v7 = New Box") {
		t.Fatalf("String() = %q", got)
	}
	vo := &Node{ID: 9, Op: OpVirtualObject, ElemKind: bc.KindInt, AuxLen: 4, AuxInt: 2}
	if got := vo.String(); !strings.Contains(got, "int[4]") || !strings.Contains(got, "id=2") {
		t.Fatalf("String() = %q", got)
	}
}

func TestDumpDot(t *testing.T) {
	g, _, _, _ := straightGraph(t)
	d := DumpDot(g)
	for _, want := range []string{"digraph", "cluster_b0", "style=bold", "Arith", "->"} {
		if !strings.Contains(d, want) {
			t.Fatalf("dot output missing %q:\n%s", want, d)
		}
	}
}
