package vm

import (
	"os"
	"sync"
	"testing"

	"pea/internal/bc"
	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/ir"
	"pea/internal/mj"
	"pea/internal/rt"
)

// loadExample compiles one of the repo's example programs.
func loadExample(t testing.TB, path string) *bc.Program {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := mj.Compile(string(src), "Main.main")
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// withJIT returns o submitting to a broker of its own built from bo —
// background workers, a bounded queue, a store, a fault hook — that carries
// the VM's sanitizer level exactly as the private broker of a nil
// Options.JIT does. The broker closes when the test ends.
func withJIT(t testing.TB, o Options, bo broker.Options) Options {
	t.Helper()
	bo.Check = o.CheckLevel
	o.JIT = broker.New(bo)
	t.Cleanup(o.JIT.Close)
	return o
}

// TestAsyncTierUpMatchesInterpreter runs the cache-key example with
// background compilation and checks the printed output against a pure
// interpreter — the async install point must not change program behavior.
func TestAsyncTierUpMatchesInterpreter(t *testing.T) {
	prog := loadExample(t, "../../examples/cachekey.mj")

	ref := New(prog, Options{Interpret: true})
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	machine := New(prog, withJIT(t, Options{EA: EAPartial, CompileThreshold: 4, CheckLevel: check.Basic},
		broker.Options{Workers: 4}))
	for i := 0; i < 30; i++ {
		if _, err := machine.Run(); err != nil {
			t.Fatal(err)
		}
	}
	machine.DrainJIT()
	for m, cerr := range machine.FailedCompilations() {
		t.Fatalf("compiling %s: %v", m.QualifiedName(), cerr)
	}
	if machine.Stats().CompiledMethods == 0 {
		t.Fatal("async tier-up never installed code")
	}
	// Each run prints one value; every run must agree with the reference.
	for i, v := range machine.Env.Output {
		if v != ref.Env.Output[0] {
			t.Fatalf("run %d printed %v, interpreter printed %v", i, v, ref.Env.Output[0])
		}
	}
}

// TestConcurrentTierUpRace hammers tier-up under the race detector: several
// VMs over the same immutable program share one broker — its background
// compile workers and its compiled-code cache — and run concurrently. This
// exercises concurrent profile reads, concurrent submissions, concurrent
// cache Get/Put, and atomic code installation while execution threads keep
// calling into the code table.
func TestConcurrentTierUpRace(t *testing.T) {
	prog := loadExample(t, "../../examples/cachekey.mj")
	shared := broker.New(broker.Options{Workers: 2, Check: check.Basic})
	defer shared.Close()

	// Populate the cache deterministically first so the concurrent phase
	// is guaranteed to exercise the replay path as well: every later VM
	// finds its hot methods in the cache at their first call.
	warm := New(prog, Options{EA: EAPartial, CompileThreshold: 4, JIT: shared})
	for i := 0; i < 20; i++ {
		if _, err := warm.Run(); err != nil {
			t.Fatal(err)
		}
	}
	warm.DrainJIT()

	const vms = 4
	var wg sync.WaitGroup
	errs := make([]error, vms)
	machines := make([]*VM, vms)
	for i := 0; i < vms; i++ {
		machines[i] = New(prog, Options{EA: EAPartial, CompileThreshold: 4, JIT: shared})
	}
	for i := 0; i < vms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				if _, err := machines[i].Run(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("vm %d: %v", i, err)
		}
	}
	for i, m := range machines {
		m.DrainJIT()
		m.Close()
		for meth, cerr := range m.FailedCompilations() {
			t.Fatalf("vm %d: compiling %s: %v", i, meth.QualifiedName(), cerr)
		}
		if warm := m.Stats().WarmInstalls; warm == 0 {
			t.Fatalf("vm %d: no cache-first installs from the shared pre-populated cache", i)
		}
	}
	if shared.Stats().CacheHits == 0 {
		t.Fatal("no cache hits on the shared pre-populated cache")
	}
	// All VMs observe identical output (deterministic program).
	for i := 1; i < vms; i++ {
		if len(machines[i].Env.Output) != len(machines[0].Env.Output) {
			t.Fatalf("vm %d output length diverged", i)
		}
		for j := range machines[i].Env.Output {
			if machines[i].Env.Output[j] != machines[0].Env.Output[j] {
				t.Fatalf("vm %d output[%d] = %v, vm 0 printed %v",
					i, j, machines[i].Env.Output[j], machines[0].Env.Output[j])
			}
		}
	}
}

// TestRecompileAfterInvalidationReplaysCache is the deopt→recompile fast
// path: once a method's speculative code is invalidated, the
// non-speculative artifact is compiled once and every later invalidation
// replays it from the cache. Stats.Recompilations counts cache misses only.
func TestRecompileAfterInvalidationReplaysCache(t *testing.T) {
	prog, m := buildCounter(t)
	machine := New(prog, Options{EA: EAPartial, Speculate: true, CompileThreshold: 2, CheckLevel: check.Basic})
	call := func() {
		t.Helper()
		if _, err := machine.Call(m, []rt.Value{rt.IntValue(1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		call()
	}
	if machine.CompiledGraph(m) == nil {
		t.Fatal("not compiled")
	}

	// First invalidation: the next call recompiles without speculation —
	// a cache miss, so it counts as a recompilation.
	machine.Invalidate(m, "deopt")
	call()
	if machine.CompiledGraph(m) == nil {
		t.Fatal("not recompiled after first invalidation")
	}
	if got := machine.Stats().Recompilations; got != 1 {
		t.Fatalf("recompilations = %d, want 1", got)
	}
	bs := machine.Broker().Stats()
	if bs.CacheHits != 0 {
		t.Fatalf("unexpected cache hit before the replay cycle: %+v", bs)
	}

	// Second invalidation: the non-speculative artifact is cached and the
	// profile's decision fingerprint is unchanged, so the reinstall is a
	// cache replay — no new recompilation.
	machine.Invalidate(m, "deopt")
	call()
	if machine.CompiledGraph(m) == nil {
		t.Fatal("not reinstalled after second invalidation")
	}
	if got := machine.Stats().Recompilations; got != 1 {
		t.Fatalf("recompilations = %d after cache replay, want 1 (cache misses only)", got)
	}
	bs = machine.Broker().Stats()
	if bs.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1 (the reinstall)", bs.CacheHits)
	}
	if got := machine.Stats().InvalidatedMethods; got != 2 {
		t.Fatalf("invalidations = %d, want 2", got)
	}
}

// TestAsyncAndSyncProduceIdenticalCode is the golden determinism check: the
// asynchronous broker must install byte-identical code (ir.Dump) to the
// synchronous default for every method both modes compiled.
func TestAsyncAndSyncProduceIdenticalCode(t *testing.T) {
	prog := loadExample(t, "../../examples/cachekey.mj")
	run := func(workers int) *VM {
		machine := New(prog, withJIT(t, Options{EA: EAPartial, CompileThreshold: 4, CheckLevel: check.Basic},
			broker.Options{Workers: workers}))
		for i := 0; i < 30; i++ {
			if _, err := machine.Run(); err != nil {
				t.Fatal(err)
			}
		}
		machine.DrainJIT()
		for m, cerr := range machine.FailedCompilations() {
			t.Fatalf("compiling %s: %v", m.QualifiedName(), cerr)
		}
		return machine
	}
	syncVM := run(0)
	asyncVM := run(2)

	compared := 0
	for _, m := range prog.Methods {
		sg, ag := syncVM.CompiledGraph(m), asyncVM.CompiledGraph(m)
		if sg == nil || ag == nil {
			// A method only one mode tiered up in time is a
			// scheduling difference, not a codegen difference.
			continue
		}
		if ir.Dump(sg) != ir.Dump(ag) {
			t.Fatalf("method %s: async and sync compiled code differ\n--- sync ---\n%s\n--- async ---\n%s",
				m.QualifiedName(), ir.Dump(sg), ir.Dump(ag))
		}
		compared++
	}
	if compared == 0 {
		t.Fatal("no method was compiled by both modes")
	}
}
