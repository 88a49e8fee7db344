package closure

import (
	"math/rand"
	"strings"
	"testing"

	"pea/internal/bc"
	"pea/internal/build"
	"pea/internal/exec"
	"pea/internal/ir"
	"pea/internal/opt"
	"pea/internal/rt"
	"pea/internal/testprog"
)

// applyParallel is the two-phase reference: read every source, then write
// every destination.
func applyParallel(slots []int64, par []move) {
	tmp := make([]int64, len(par))
	for i, mv := range par {
		tmp[i] = slots[mv.src]
	}
	for i, mv := range par {
		slots[mv.dst] = tmp[i]
	}
}

// checkSequentialize runs par both ways over n distinct slot values (slot n
// is the scratch) and compares every non-scratch slot.
func checkSequentialize(t *testing.T, name string, n int, par []move) {
	t.Helper()
	want := make([]int64, n+1)
	got := make([]int64, n+1)
	for i := range want {
		want[i] = int64(100 + i)
		got[i] = want[i]
	}
	applyParallel(want, par)
	scratches := 0
	seq := sequentialize(append([]move(nil), par...), func() int32 {
		scratches++
		return int32(n)
	})
	for _, mv := range seq {
		if mv.src == mv.dst {
			t.Errorf("%s: self-move %v survived in %v", name, mv, seq)
		}
		got[mv.dst] = got[mv.src]
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: parallel %v as sequence %v: slot %d = %d, want %d",
				name, par, seq, i, got[i], want[i])
		}
	}
	if len(seq) > len(par)+scratches {
		t.Errorf("%s: %d moves for %d parallel copies and %d cycle breaks", name, len(seq), len(par), scratches)
	}
}

// TestSequentializeMatchesParallelCopy checks the move sequentializer
// against the two-phase reference on the shapes phi copies take, then on
// random parallel copies.
func TestSequentializeMatchesParallelCopy(t *testing.T) {
	for _, tc := range []struct {
		name string
		par  []move
	}{
		{"empty", nil},
		{"independent", []move{{0, 1}, {2, 3}}},
		{"self-moves only", []move{{0, 0}, {1, 1}}},
		{"chain", []move{{0, 1}, {1, 2}, {2, 3}}},
		{"chain reversed", []move{{2, 3}, {1, 2}, {0, 1}}},
		{"swap", []move{{0, 1}, {1, 0}}},
		{"three-cycle", []move{{1, 0}, {2, 1}, {0, 2}}},
		{"two disjoint cycles", []move{{0, 1}, {1, 0}, {2, 3}, {3, 4}, {4, 2}}},
		{"cycle with a tail", []move{{0, 1}, {1, 0}, {0, 2}, {2, 3}}},
		{"fan-out", []move{{0, 1}, {0, 2}, {0, 3}}},
		{"dst also src", []move{{0, 1}, {1, 2}, {3, 0}}},
		{"self-move inside a swap", []move{{0, 1}, {1, 0}, {2, 2}}},
	} {
		checkSequentialize(t, tc.name, 5, tc.par)
	}
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 2000; round++ {
		n := 1 + rng.Intn(8)
		var par []move
		for _, dst := range rng.Perm(n)[:rng.Intn(n+1)] {
			par = append(par, move{src: int32(rng.Intn(n)), dst: int32(dst)})
		}
		checkSequentialize(t, "random", n, par)
	}
}

// run compiles g and executes it once.
func run(t *testing.T, g *ir.Graph, eng *exec.Engine, args ...rt.Value) (rt.Value, error) {
	t.Helper()
	c, err := compile(g)
	if err != nil {
		t.Fatalf("compile: %v\n%s", err, ir.Dump(g))
	}
	return c.Run(eng, args)
}

// TestCorpusMatchesOracleUnoptimized lowers the graph builder's raw output
// for the whole corpus — forwarding blocks, phi cycles, exception edges and
// all — and requires the oracle's results, traps and heap effects.
func TestCorpusMatchesOracleUnoptimized(t *testing.T) {
	for _, p := range testprog.Corpus() {
		t.Run(p.Name, func(t *testing.T) {
			graphs := make(map[*bc.Method]*ir.Graph)
			codes := make(map[*bc.Method]exec.Code)
			for _, m := range p.Prog.Methods {
				g, err := build.Build(m)
				if err != nil {
					t.Fatal(err)
				}
				graphs[m] = g
				if codes[m], err = compile(g); err != nil {
					t.Fatalf("%s: %v", m.QualifiedName(), err)
				}
			}
			for _, args := range p.ArgSets {
				vals := make([]rt.Value, len(p.Entry.Params))
				for i := range vals {
					vals[i] = rt.IntValue(args[i])
				}
				oracle := &exec.Engine{Env: rt.NewEnv(p.Prog, 7)}
				oracle.Env.MaxSteps = 5_000_000
				oracle.Invoke = func(m *bc.Method, as []rt.Value) (rt.Value, error) {
					return oracle.Run(graphs[m], as)
				}
				want, wantErr := oracle.Run(graphs[p.Entry], vals)

				eng := &exec.Engine{Env: rt.NewEnv(p.Prog, 7)}
				eng.Env.MaxSteps = 5_000_000
				eng.Invoke = func(m *bc.Method, as []rt.Value) (rt.Value, error) {
					return codes[m].Run(eng, as)
				}
				got, gotErr := codes[p.Entry].Run(eng, vals)

				if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
					t.Fatalf("args %v: closure err %v, oracle %v", args, gotErr, wantErr)
				}
				if wantErr == nil && !got.Equal(want) {
					t.Fatalf("args %v: closure %v, oracle %v", args, got, want)
				}
				if eng.Env.Stats != oracle.Env.Stats {
					t.Fatalf("args %v: closure stats %+v, oracle %+v", args, eng.Env.Stats, oracle.Env.Stats)
				}
			}
		})
	}
}

// TestPhiCycleProgramsHaveCycles keeps phiSwap and phiRotate3 honest: once
// optimized, their loop headers must really carry phis that read each other
// along the back edge, or they would stop testing the cycle-breaking path.
func TestPhiCycleProgramsHaveCycles(t *testing.T) {
	for _, p := range testprog.Corpus() {
		if p.Name != "phiSwap" && p.Name != "phiRotate3" {
			continue
		}
		g, err := build.Build(p.Entry)
		if err != nil {
			t.Fatal(err)
		}
		if err := opt.Standard().Run(g); err != nil {
			t.Fatal(err)
		}
		cyclic := map[bc.Kind]bool{}
		for _, b := range g.Blocks {
			for _, phi := range b.Phis {
				for _, in := range phi.Inputs {
					if in != phi && in.Op == ir.OpPhi && in.Block == b {
						cyclic[phi.Kind] = true
					}
				}
			}
		}
		if !cyclic[bc.KindInt] || !cyclic[bc.KindRef] {
			t.Errorf("%s: phis reading a sibling phi by kind: %v, want both int and ref", p.Name, cyclic)
		}
	}
}

// twoIntMethod is a static int m(int, int) to hang hand-built graphs on.
func twoIntMethod(t *testing.T) (*bc.Program, *bc.Method) {
	t.Helper()
	a := bc.NewAssembler()
	c := a.Class("C", "")
	c.Method("m", []bc.Kind{bc.KindInt, bc.KindInt}, bc.KindInt, true).Load(0).Load(1).Add().ReturnValue()
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	return prog, prog.ClassByName("C").MethodByName("m")
}

func param(g *ir.Graph, i int64, k bc.Kind) *ir.Node {
	n := g.NewNode(ir.OpParam, k)
	n.AuxInt = i
	return g.Append(g.Entry(), n)
}

// TestKindConfusionIsCompileError: a phi of one kind fed a value of the
// other must be rejected when lowered — never lowered into a read of the
// wrong typed array.
func TestKindConfusionIsCompileError(t *testing.T) {
	_, m := twoIntMethod(t)
	g := ir.NewGraph(m)
	entry, join := g.Entry(), g.NewBlock()
	x := param(g, 0, bc.KindInt)
	null := g.ConstNull(entry)
	g.SetTerm(entry, g.NewNode(ir.OpGoto, bc.KindVoid), join)
	phi := g.AddPhi(join, bc.KindInt, null)
	sum := g.NewNode(ir.OpArith, bc.KindInt, phi, x)
	sum.Aux2 = bc.OpAdd
	g.Append(join, sum)
	g.SetTerm(join, g.NewNode(ir.OpReturn, bc.KindVoid, sum))

	_, err := New().Compile(g)
	if err == nil || !strings.Contains(err.Error(), "want int") {
		t.Fatalf("Compile = %v, want a kind error", err)
	}

	// The same confusion on a plain operand.
	g = ir.NewGraph(m)
	neg := g.NewNode(ir.OpNeg, bc.KindInt, g.ConstNull(g.Entry()))
	g.Append(g.Entry(), neg)
	g.SetTerm(g.Entry(), g.NewNode(ir.OpReturn, bc.KindVoid, neg))
	if _, err := New().Compile(g); err == nil || !strings.Contains(err.Error(), "want int") {
		t.Fatalf("Compile = %v, want a kind error", err)
	}
}

// TestEmptyLoopStopsOnStepBudget: edge threading follows forwarding blocks,
// and `for(;;){}` is a forwarding block that jumps to itself. The hop bound
// must leave it dispatched (and charged) every iteration so the step budget
// still ends the run.
func TestEmptyLoopStopsOnStepBudget(t *testing.T) {
	a := bc.NewAssembler()
	c := a.Class("C", "")
	c.Method("spin", nil, bc.KindVoid, true).Label("top").Goto("top")
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := build.Build(prog.ClassByName("C").MethodByName("spin"))
	if err != nil {
		t.Fatal(err)
	}
	eng := &exec.Engine{Env: rt.NewEnv(prog, 1)}
	eng.Env.MaxSteps = 10_000
	_, err = run(t, g, eng)
	if err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Fatalf("Run = %v, want the step-budget error", err)
	}
}

// compareAndDeopt builds
//
//	entry: c = x < y; if c goto hot else cold
//	hot:   deopt            (frame state optionally holds c)
//	cold:  return x
//
// and returns the graph and c.
func compareAndDeopt(m *bc.Method, inFrameState bool) (*ir.Graph, *ir.Node) {
	g := ir.NewGraph(m)
	entry, hot, cold := g.Entry(), g.NewBlock(), g.NewBlock()
	x, y := param(g, 0, bc.KindInt), param(g, 1, bc.KindInt)
	c := g.NewNode(ir.OpCmp, bc.KindInt, x, y)
	c.Cond = bc.CondLT
	g.Append(entry, c)
	g.SetTerm(entry, g.NewNode(ir.OpIf, bc.KindVoid, c), hot, cold)
	deopt := g.NewNode(ir.OpDeopt, bc.KindVoid)
	deopt.FrameState = &ir.FrameState{Method: m, BCI: 0, Locals: []*ir.Node{x, y}}
	if inFrameState {
		deopt.FrameState.Stack = []*ir.Node{c}
	}
	g.SetTerm(hot, deopt)
	g.SetTerm(cold, g.NewNode(ir.OpReturn, bc.KindVoid, x))
	return g, c
}

// TestFusedCompare: a compare whose only use is its block's If is fused into
// the terminator (no slot), and still branches correctly; one that a frame
// state also references keeps its slot, so the deopt runtime reads the right
// value out of the frame.
func TestFusedCompare(t *testing.T) {
	prog, m := twoIntMethod(t)
	g, c := compareAndDeopt(m, false)
	if !fusedIfs(g)[0] {
		t.Fatalf("compare used only by its block's If is not fused")
	}
	eng := &exec.Engine{Env: rt.NewEnv(prog, 1)}
	eng.Deopt = func(_ *ir.Graph, n *ir.Node, eval func(*ir.Node) (rt.Value, bool)) (rt.Value, error) {
		if _, ok := eval(c); ok {
			t.Errorf("fused compare has a frame value")
		}
		return rt.IntValue(-1), nil
	}
	for _, tc := range []struct{ x, y, want int64 }{{1, 2, -1}, {2, 1, 2}, {3, 3, 3}} {
		got, err := run(t, g, eng, rt.IntValue(tc.x), rt.IntValue(tc.y))
		if err != nil || got.I != tc.want {
			t.Fatalf("fused m(%d,%d) = %v, %v; want %d", tc.x, tc.y, got, err, tc.want)
		}
	}

	g, c = compareAndDeopt(m, true)
	if fusedIfs(g)[0] {
		t.Fatalf("compare referenced by a frame state was fused")
	}
	eng.Deopt = func(_ *ir.Graph, n *ir.Node, eval func(*ir.Node) (rt.Value, bool)) (rt.Value, error) {
		var vals []int64
		n.FrameState.ForEachValue(func(v *ir.Node) {
			rv, ok := eval(v)
			if !ok {
				t.Errorf("no frame value for %s", v)
			}
			vals = append(vals, rv.I)
		})
		// Locals x, y, then the stacked compare.
		return rt.IntValue(vals[0]*100 + vals[1]*10 + vals[2]), nil
	}
	got, err := run(t, g, eng, rt.IntValue(4), rt.IntValue(7))
	if err != nil || got.I != 471 {
		t.Fatalf("deopt read %v, %v; want 471 (x=4, y=7, x<y=1)", got, err)
	}
}

// TestGuardedConstDivisor: inside a try region every div/rem is guarded by an
// OnException terminator, but one whose divisor is a non-zero constant
// cannot trap and is lowered without the recover frame; a variable divisor
// keeps it and still reaches the handler.
func TestGuardedConstDivisor(t *testing.T) {
	a := bc.NewAssembler()
	c := a.Class("C", "")
	m := c.Method("m", []bc.Kind{bc.KindInt, bc.KindInt}, bc.KindInt, true)
	r := m.NewLocal(bc.KindInt)
	m.Label("ts").Load(0).Const(7).Rem().Store(r)
	m.Load(r).Load(0).Load(1).Div().Add().Store(r)
	m.Label("te").Goto("out")
	m.Label("h").Pop().Const(-1).Store(r)
	m.Label("out").Load(r).ReturnValue()
	m.Exception("ts", "te", "h", nil)
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	g, err := build.Build(prog.ClassByName("C").MethodByName("m"))
	if err != nil {
		t.Fatal(err)
	}
	var free, kept int
	for _, b := range g.Blocks {
		if b.Term.Op != ir.OpOnException {
			continue
		}
		if cannotTrap(b.Term.Inputs[0]) {
			free++
		} else {
			kept++
		}
	}
	if free != 1 || kept != 1 {
		t.Fatalf("%d guards provably trap-free, %d kept; want 1 and 1\n%s", free, kept, ir.Dump(g))
	}
	eng := &exec.Engine{Env: rt.NewEnv(prog, 1)}
	for _, tc := range []struct{ x, y, want int64 }{{20, 4, 11}, {20, 0, -1}, {-9, 3, -5}} {
		got, err := run(t, g, eng, rt.IntValue(tc.x), rt.IntValue(tc.y))
		if err != nil || got.I != tc.want {
			t.Fatalf("m(%d,%d) = %v, %v; want %d", tc.x, tc.y, got, err, tc.want)
		}
	}
}
