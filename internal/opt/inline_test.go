package opt

import (
	"testing"

	"pea/internal/bc"
	"pea/internal/build"
	"pea/internal/ir"
)

// twoSiteProg builds a caller with two eligible call sites:
//
//	noesc(b) { return 7 }        // never observes b
//	reads(b) { return b.v }      // loads from b
//	f(b)     { return noesc(b) + reads(b) }
func twoSiteProg(t *testing.T) (*bc.Program, *bc.Method) {
	t.Helper()
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	vField := box.Field("v", bc.KindInt)
	c := a.Class("C", "")

	noesc := c.Method("noesc", []bc.Kind{bc.KindRef}, bc.KindInt, true)
	noesc.Const(7).ReturnValue()

	reads := c.Method("reads", []bc.Kind{bc.KindRef}, bc.KindInt, true)
	reads.Load(0).GetField(vField).ReturnValue()

	f := c.Method("f", []bc.Kind{bc.KindRef}, bc.KindInt, true)
	f.Load(0).InvokeStatic(noesc.Ref()).
		Load(0).InvokeStatic(reads.Ref()).
		Add().ReturnValue()

	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	return p, f.Ref()
}

// calleeOf returns the qualified name of an invoke site's target.
func calleeOf(n *ir.Node) string {
	if n == nil || n.Method == nil {
		return "<none>"
	}
	return n.Method.QualifiedName()
}

// TestPickSiteTakesBlockOrder: the inliner takes the first eligible site in
// block order, whatever the callees' escape summaries say, and with room for
// both inlines both.
func TestPickSiteTakesBlockOrder(t *testing.T) {
	p, f := twoSiteProg(t)
	g, err := build.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	in := &Inliner{BuildGraph: build.Build, Program: p}
	if got := calleeOf(in.pickSite(g, nil)); got != "C.noesc" {
		t.Fatalf("pickSite = %s, want C.noesc (first in block order)", got)
	}
	if _, err := in.Run(g); err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(g); err != nil {
		t.Fatalf("invalid graph after inlining: %v\n%s", err, ir.Dump(g))
	}
	left := 0
	g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
		if n.Op == ir.OpInvoke {
			left++
		}
	})
	if left != 0 {
		t.Fatalf("%d invokes left, want 0 (budget fits both)\n%s", left, ir.Dump(g))
	}
}
