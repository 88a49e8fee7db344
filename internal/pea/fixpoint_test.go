package pea

import (
	"fmt"
	"testing"

	"pea/internal/bc"
	"pea/internal/check"
	"pea/internal/ir"
	"pea/internal/obs"
)

// splitOnly returns the dump of what critical-edge splitting alone makes
// of a graph from build.
func splitOnly(build func() *ir.Graph) string {
	g := build()
	splitCriticalEdges(g)
	return ir.Dump(g)
}

// loopHeaders returns the RPO positions of the blocks with a predecessor at
// or after their own position, in RPO order.
func loopHeaders(a *analyzer) []int {
	var out []int
	for i, b := range a.cfg.RPO {
		for _, p := range b.Preds {
			if a.cfg.Index(p) >= i {
				out = append(out, i)
				break
			}
		}
	}
	return out
}

// TestAllocationFreeGraphIsNotAnalyzed: a graph with nothing PEA could
// virtualize returns a zero Result before any control-flow analysis, and
// leaves exactly what the full analysis leaves on such a graph: its
// critical edges split, nothing else changed.
func TestAllocationFreeGraphIsNotAnalyzed(t *testing.T) {
	body := func(m *bc.MethodAsm, box *bc.ClassAsm, v, ref, sink *bc.Field) {
		s, i := m.NewLocal(bc.KindInt), m.NewLocal(bc.KindInt)
		m.Const(0).Store(s).Const(0).Store(i)
		m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
		m.Load(i).Const(2).Rem().If(bc.CondNE, "odd")
		m.Load(s).Load(i).Add().Store(s)
		m.Label("odd").Load(i).Const(1).Add().Store(i).Goto("head")
		m.Label("done").Load(s).ReturnValue()
	}
	build := func() *ir.Graph {
		_, g := figureGraph(t, []bc.Kind{bc.KindInt}, bc.KindInt, body)
		return g
	}
	g := build()
	blocks := len(g.Blocks)
	trees := ir.DomTreesBuilt()
	res, err := Run(g, Config{Check: check.Strict})
	if err != nil {
		t.Fatal(err)
	}
	if res != (Result{}) {
		t.Fatalf("Result = %+v, want zero", res)
	}
	if d := ir.DomTreesBuilt() - trees; d != 0 {
		t.Fatalf("%d dominator trees built, want none", d)
	}
	if len(g.Blocks) == blocks {
		t.Fatal("the fixture has no critical edge to split")
	}
	if got, want := ir.Dump(g), splitOnly(build); got != want {
		t.Fatalf("graph differs from the split-only graph:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestConfirmingRoundStartsAtFirstLoop: after the first round the fixpoint
// revisits only the blocks from the first loop header on; the straight-line
// prefix ahead of it is transferred once. Round 2 gives the loop its field
// phi and round 3 confirms it, each transferring the loop's three blocks.
func TestConfirmingRoundStartsAtFirstLoop(t *testing.T) {
	prog, g := figureGraph(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, ref, sink *bc.Field) {
			l, i := m.NewLocal(bc.KindRef), m.NewLocal(bc.KindInt)
			m.New(box.Ref()).Store(l)
			// Eight diamonds ahead of the loop.
			for k := int64(0); k < 8; k++ {
				skip := fmt.Sprintf("skip%d", k)
				m.Load(0).Const(k).IfCmp(bc.CondLE, skip)
				m.Load(l).Load(l).GetField(v).Const(k).Add().PutField(v)
				m.Label(skip)
			}
			m.Const(0).Store(i)
			m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
			m.Load(l).Load(l).GetField(v).Load(i).Add().PutField(v)
			m.Load(i).Const(1).Add().Store(i).Goto("head")
			m.Label("done").Load(l).GetField(v).ReturnValue()
		})
	a := &analyzer{g: g, conf: Config{Check: check.Strict}}
	res, err := a.run()
	if err != nil {
		t.Fatal(err)
	}
	blocks, first := len(a.cfg.RPO), a.firstLoopHeader()
	if res.Rounds != 3 || blocks != 28 || first != 25 || a.transfers != 28+3+3 {
		t.Fatalf("rounds %d, %d blocks, first loop header at %d, %d transfers; want 3, 28, 25, %d",
			res.Rounds, blocks, first, a.transfers, 28+3+3)
	}
	if count(g, ir.OpNew)+count(g, ir.OpMaterialize) != 0 {
		t.Fatalf("object not virtualized:\n%s", ir.Dump(g))
	}
	if got, env := execGraph(t, prog, g, 10); got.I != 28+45 || env.Stats.Allocations != 0 {
		t.Fatalf("got %v, allocations %d", got, env.Stats.Allocations)
	}
}

// nestedEscape assembles loops nested depth deep around a field update and
// a static store of an object allocated ahead of them. The first round runs
// every loop on its speculative state, where the object is virtual; the
// store's escape then reaches one enclosing header per round, innermost
// first, and the fixpoint converges in depth+3 rounds (depth >= 2).
func nestedEscape(t *testing.T, depth int) (*bc.Program, *ir.Graph) {
	return figureGraph(t, []bc.Kind{bc.KindInt}, bc.KindInt,
		func(m *bc.MethodAsm, box *bc.ClassAsm, v, ref, sink *bc.Field) {
			l := m.NewLocal(bc.KindRef)
			m.New(box.Ref()).Store(l)
			idx := make([]int, depth)
			for d := range idx {
				idx[d] = m.NewLocal(bc.KindInt)
				m.Const(0).Store(idx[d])
				m.Label(fmt.Sprintf("head%d", d)).Load(idx[d]).Load(0).IfCmp(bc.CondGE, fmt.Sprintf("done%d", d))
			}
			m.Load(l).Load(l).GetField(v).Const(1).Add().PutField(v)
			m.Load(l).PutStatic(sink)
			for d := depth - 1; d >= 0; d-- {
				m.Load(idx[d]).Const(1).Add().Store(idx[d]).Goto(fmt.Sprintf("head%d", d))
				m.Label(fmt.Sprintf("done%d", d))
			}
			m.Load(l).GetField(v).ReturnValue()
		})
}

// TestNestedLoopsSettleInnerFirst: the outer loop's header changes only in
// the round after the inner loop's header did, and the analysis converges
// on a correct graph with the strict self-checks on every transfer.
func TestNestedLoopsSettleInnerFirst(t *testing.T) {
	prog, g := nestedEscape(t, 2)
	changed := map[int]map[string]bool{}
	round := 0
	sink := obs.NewSink(obs.FuncBackend(func(e *obs.Event) {
		switch e.Kind {
		case obs.KindPEARound:
			round = e.Round
			changed[round] = map[string]bool{}
		case obs.KindPEAState:
			changed[round][e.Block] = true
		}
	}))
	a := &analyzer{g: g, conf: Config{Check: check.Strict, Sink: sink}, sink: sink}
	res, err := a.run()
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(g); err != nil {
		t.Fatalf("invalid graph: %v\n%s", err, ir.Dump(g))
	}
	heads := loopHeaders(a)
	if len(heads) != 2 {
		t.Fatalf("loop headers at %v, want two", heads)
	}
	outer, inner := a.cfg.RPO[heads[0]].String(), a.cfg.RPO[heads[1]].String()
	if res.Rounds != 5 || res.BailedOut {
		t.Fatalf("Result = %+v, want convergence in round 5", res)
	}
	if !changed[2][inner] || changed[2][outer] || !changed[3][outer] || len(changed[5]) != 0 {
		t.Fatalf("changed blocks per round = %v; want inner header %s in round 2, outer header %s not before round 3, none in round 5",
			changed, inner, outer)
	}
	if got, env := execGraph(t, prog, g, 3); got.I != 9 || env.Stats.Allocations != 1 {
		t.Fatalf("got %v, allocations %d; want 9, 1", got, env.Stats.Allocations)
	}
}

// TestUnsettledLoopBailsOut: a loop nest that needs one round more than
// maxRounds bails out at maxRounds, and the graph keeps only its split
// edges; one loop less converges in exactly maxRounds.
func TestUnsettledLoopBailsOut(t *testing.T) {
	const depth = maxRounds - 2
	_, g := nestedEscape(t, depth-1)
	if res, err := Run(g, Config{Check: check.Strict}); err != nil || res.BailedOut || res.Rounds != maxRounds {
		t.Fatalf("depth %d: Result = %+v (%v), want convergence in round %d", depth-1, res, err, maxRounds)
	}
	_, g = nestedEscape(t, depth)
	res, err := Run(g, Config{Check: check.Strict})
	if err != nil {
		t.Fatal(err)
	}
	if !res.BailedOut || res.Rounds != maxRounds || res.Changed {
		t.Fatalf("Result = %+v, want a bailout after %d rounds", res, maxRounds)
	}
	want := splitOnly(func() *ir.Graph {
		_, g := nestedEscape(t, depth)
		return g
	})
	if got := ir.Dump(g); got != want {
		t.Fatalf("bailout changed the graph beyond splitting edges:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
