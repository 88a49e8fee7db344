package closure_test

import (
	"os"
	"path/filepath"
	"testing"

	"pea/internal/exec/closure"
	"pea/internal/ir"
	"pea/internal/mj"
	"pea/internal/rt"
	"pea/internal/vm"
)

// arithSrc is a self-contained hot loop whose compiled body performs no
// calls and no heap operations — every node lowers to pure slot arithmetic,
// so its steady-state execution must not allocate at all.
const arithSrc = `
class Main {
	static int hot(int n) {
		int s = 0;
		int i = 0;
		while (i < n) {
			s = s + i * 3 - (s >> 1);
			s = s ^ (i << 2);
			i = i + 1;
		}
		return s % 65536;
	}
	static void main() { print(hot(64)); }
}
`

// pairSrc is the PEA showcase loop (the OSR experiment's workload shape):
// each iteration allocates a Pair that never escapes, so the compiled body
// is scalar-replaced arithmetic plus a call.
const pairSrc = `
class Pair {
	int a;
	int b;
	Pair(int a, int b) { this.a = a; this.b = b; }
	int mix() { return a * 31 + b; }
}
class Main {
	static int hot(int n) {
		int acc = 0;
		int i = 0;
		while (i < n) {
			Pair p = new Pair(i, acc);
			acc = p.mix() % 65536;
			i = i + 1;
		}
		return acc;
	}
	static void main() { print(hot(1000)); }
}
`

// callSrc is a compiled caller looping over a compiled callee that is too big
// to inline (past the inliner's 80-instruction bound), taking one reference
// and two int arguments: every iteration is a real closure→closure invoke.
const callSrc = `
class Acc {
	int v;
}
class Main {
	static int mix(Acc a, int x, int y) {
		int r = x * 31 + y;
		r = r ^ (r >> 3); r = r + x * 7; r = r ^ (r << 2); r = r - y * 5;
		r = r ^ (r >> 5); r = r + x * 11; r = r ^ (r << 1); r = r - y * 3;
		r = r ^ (r >> 7); r = r + x * 13; r = r ^ (r << 4); r = r - y * 9;
		r = r ^ (r >> 2); r = r + x * 17; r = r ^ (r << 3); r = r - y * 2;
		a.v = r % 65536;
		return a.v;
	}
	static Acc acc;
	static int hot(int n) {
		if (acc == null) { acc = new Acc(); }
		int s = 0;
		int i = 0;
		while (i < n) {
			s = (s + mix(acc, i, s)) % 65536;
			i = i + 1;
		}
		return s;
	}
	static void main() { print(hot(64)); }
}
`

// warmHot compiles src, warms Main.hot past the JIT threshold under the
// given backend, and returns the VM with compiled code installed.
func warmHot(t testing.TB, src string, backend vm.Backend) *vm.VM {
	t.Helper()
	prog, err := mj.Compile(src, "Main.main")
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.New(prog, vm.Options{
		EA:               vm.EAPartial,
		Backend:          backend,
		CompileThreshold: 3,
		Seed:             7,
	})
	hot := prog.ClassByName("Main").MethodByName("hot")
	for i := 0; i < 8; i++ {
		if _, err := machine.Call(hot, []rt.Value{rt.IntValue(64)}); err != nil {
			t.Fatal(err)
		}
	}
	machine.DrainJIT()
	if machine.CompiledGraph(hot) == nil {
		t.Fatal("Main.hot did not tier up")
	}
	return machine
}

// TestClosureMatchesOracleOnCorpus runs a small corpus under both backends
// and requires identical results and heap effects — the package-level
// sanity check behind the system-wide differential fuzzer in internal/vm.
func TestClosureMatchesOracleOnCorpus(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
		n    int64
	}{
		{"arith", arithSrc, 10_000},
		{"pair", pairSrc, 10_000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type obs struct {
				v      rt.Value
				allocs int64
			}
			run := func(backend vm.Backend) obs {
				machine := warmHot(t, tc.src, backend)
				hot := machine.Prog.ClassByName("Main").MethodByName("hot")
				v, err := machine.Call(hot, []rt.Value{rt.IntValue(tc.n)})
				if err != nil {
					t.Fatal(err)
				}
				return obs{v: v, allocs: machine.Env.Stats.Allocations}
			}
			oracle := run(vm.BackendOracle)
			closure := run(vm.BackendClosure)
			if !closure.v.Equal(oracle.v) {
				t.Fatalf("closure result %v, oracle %v", closure.v, oracle.v)
			}
			if closure.allocs != oracle.allocs {
				t.Fatalf("closure allocated %d, oracle %d", closure.allocs, oracle.allocs)
			}
		})
	}
}

// TestClosureSteadyStateZeroAlloc is the zero-alloc guard for the dispatch
// loop: once a pure-arithmetic method is compiled by the closure backend,
// invoking it must allocate nothing — the frame comes from the pool, values
// move between dense slots, and no per-node or per-block bookkeeping
// escapes to the heap.
func TestClosureSteadyStateZeroAlloc(t *testing.T) {
	machine := warmHot(t, arithSrc, vm.BackendClosure)
	hot := machine.Prog.ClassByName("Main").MethodByName("hot")
	args := []rt.Value{rt.IntValue(512)}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := machine.Call(hot, args); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state closure dispatch allocates %.2f objects per call, want 0", avg)
	}
}

// TestClosureCallZeroAlloc is the zero-alloc guard for calls: a compiled
// method invoking a compiled, non-inlined callee passes its arguments in the
// frame's scratch vector and the callee runs in a pooled frame, so a warmed
// call chain allocates nothing per call.
func TestClosureCallZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops frames at random under the race detector")
	}
	machine := warmHot(t, callSrc, vm.BackendClosure)
	main := machine.Prog.ClassByName("Main")
	hot, mix := main.MethodByName("hot"), main.MethodByName("mix")
	if machine.CompiledGraph(mix) == nil {
		t.Fatal("Main.mix did not tier up")
	}
	calls := 0
	for _, b := range machine.CompiledGraph(hot).Blocks {
		for _, n := range b.Nodes {
			if n.Op == ir.OpInvoke && n.Method == mix {
				calls++
			}
		}
	}
	if calls == 0 {
		t.Fatal("Main.mix was inlined into Main.hot; the test needs a real invoke")
	}
	args := []rt.Value{rt.IntValue(256)}
	avg := testing.AllocsPerRun(100, func() {
		if _, err := machine.Call(hot, args); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("%.2f Go allocations per 256 compiled calls, want 0", avg)
	}
}

// BenchmarkClosureSteadyState measures one warmed call of the PEA hot loop
// under each executor. The closure backend's wall-clock advantage over the
// oracle (and both compiled backends over the interpreter) is the honest
// version of the repo's modeled-cycle speedups.
func BenchmarkClosureSteadyState(b *testing.B) {
	args := []rt.Value{rt.IntValue(10_000)}
	bench := func(b *testing.B, machine *vm.VM) {
		b.Helper()
		hot := machine.Prog.ClassByName("Main").MethodByName("hot")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := machine.Call(hot, args); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("interp", func(b *testing.B) {
		prog, err := mj.Compile(pairSrc, "Main.main")
		if err != nil {
			b.Fatal(err)
		}
		bench(b, vm.New(prog, vm.Options{Interpret: true, Seed: 7}))
	})
	b.Run("oracle", func(b *testing.B) {
		bench(b, warmHot(b, pairSrc, vm.BackendOracle))
	})
	b.Run("closure", func(b *testing.B) {
		bench(b, warmHot(b, pairSrc, vm.BackendClosure))
	})
}

// BenchmarkLower measures lowering alone (closure.lower_us in peaperf) over
// graphs the full pipeline produced — inlined, PEA-transformed, with the
// frame states that make the use-count walk expensive.
func BenchmarkLower(b *testing.B) {
	var graphs []*ir.Graph
	files, err := filepath.Glob("../../../examples/*.mj")
	if err != nil || len(files) == 0 {
		b.Fatalf("no example programs: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			b.Fatal(err)
		}
		prog, err := mj.Compile(string(src), "Main.main")
		if err != nil {
			b.Fatalf("%s: %v", file, err)
		}
		machine := vm.New(prog, vm.Options{EA: vm.EAPartial, Interpret: true})
		for _, m := range prog.Methods {
			g, err := machine.Compile(m)
			if err != nil {
				b.Fatalf("%s: %v", m.QualifiedName(), err)
			}
			graphs = append(graphs, g)
		}
	}
	backend := closure.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			if _, err := backend.Compile(g); err != nil {
				b.Fatal(err)
			}
		}
	}
}
