package vm

import (
	"errors"
	"os"
	"sync"
	"testing"

	"pea/internal/bc"
	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/interp"
	"pea/internal/mj"
	"pea/internal/obs"
	"pea/internal/rt"
)

// sharedBroker is the multi-tenant shape: one synchronous broker (cache, no
// store) that several VMs adopt through Options.JIT.
func sharedBroker(t testing.TB) *broker.Broker {
	t.Helper()
	b := broker.New(broker.Options{Check: check.Basic})
	t.Cleanup(b.Close)
	return b
}

func callInt(t testing.TB, machine *VM, m *bc.Method, arg int64) rt.Value {
	t.Helper()
	v, err := machine.Call(m, []rt.Value{rt.IntValue(arg)})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestNonSpeculativeKeysIgnoreProfile: without speculation no compiler phase
// reads the profile, so the cache key — standard and OSR entry — carries no
// fingerprint: a VM that has executed nothing and VMs with different
// call-site histories all compute the same key.
func TestNonSpeculativeKeysIgnoreProfile(t *testing.T) {
	p := corpusProg(t, "virtualCalls")
	opts := Options{EA: EAPartial, CompileThreshold: 1 << 30, OSRThreshold: 1 << 30}
	fresh := New(p.Prog, opts)
	a := New(p.Prog, opts)
	b := New(p.Prog, opts)
	// Different receiver classes at the virtual call site.
	for i := int64(0); i < 8; i++ {
		for sel, machine := range []*VM{a, b} {
			if _, err := machine.Call(p.Entry, []rt.Value{rt.IntValue(int64(sel)), rt.IntValue(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a.Interp.Profile.Invocations(p.Entry) == 0 {
		t.Fatal("profiles never moved; test is vacuous")
	}
	for _, m := range p.Prog.Methods {
		for _, entry := range []int{broker.NoOSR, 3} {
			kf, ka, kb := fresh.cacheKey(m, entry), a.cacheKey(m, entry), b.cacheKey(m, entry)
			if kf != ka || ka != kb {
				t.Fatalf("%s entry %d: keys differ across profiles:\n%+v\n%+v\n%+v",
					m.QualifiedName(), entry, kf, ka, kb)
			}
			if kf.Fingerprint != 0 || kf.Spec {
				t.Fatalf("%s entry %d: non-speculative key carries profile state: %+v",
					m.QualifiedName(), entry, kf)
			}
		}
	}
}

// TestSpeculativeKeysFollowBranchVerdicts: a speculative compile prunes by
// the profile, so its key must tell apart profiles whose pruning verdicts
// differ — and only those.
func TestSpeculativeKeysFollowBranchVerdicts(t *testing.T) {
	p := corpusProg(t, "partialEscape")
	// Interpret-only VMs gather the profile and still say what key a compile
	// at threshold 10 would use.
	opts := Options{EA: EAPartial, Speculate: true, CompileThreshold: 10, Interpret: true}
	run := func(args ...int64) *VM {
		machine := New(p.Prog, opts)
		for i := 0; i < 30; i++ {
			for _, a := range args {
				callInt(t, machine, p.Entry, a)
			}
		}
		return machine
	}
	cold := run(5)       // escaping branch never taken: prunable
	coldAgain := run(7)  // other raw counts and values, same verdicts
	mixed := run(5, 200) // both sides taken: nothing to prune
	k1, k2, k3 := cold.cacheKey(p.Entry, broker.NoOSR), coldAgain.cacheKey(p.Entry, broker.NoOSR),
		mixed.cacheKey(p.Entry, broker.NoOSR)
	if !k1.Spec || k1.Fingerprint == 0 {
		t.Fatalf("speculative key lost its fingerprint: %+v", k1)
	}
	if k1 != k2 {
		t.Fatalf("equal pruning verdicts, different keys:\n%+v\n%+v", k1, k2)
	}
	if k1 == k3 {
		t.Fatalf("different pruning verdicts, equal keys: %+v", k1)
	}
}

// TestSpeculatingVMWarmInstallsOnlyAfterDeopt: a VM that speculates must
// gather its own profile, so it never takes the cache-first shortcut — until
// a method deoptimizes out of speculation. From then on its key is the
// non-speculative one, and the artifact another VM left in the cache is
// installed at the next call without a pipeline run.
func TestSpeculatingVMWarmInstallsOnlyAfterDeopt(t *testing.T) {
	p := corpusProg(t, "partialEscape")
	shared := sharedBroker(t)
	plain := New(p.Prog, Options{EA: EAPartial, CompileThreshold: 5, CheckLevel: check.Basic, JIT: shared})
	for i := 0; i < 10; i++ {
		callInt(t, plain, p.Entry, 5)
	}
	if plain.CompiledGraph(p.Entry) == nil {
		t.Fatal("populating VM compiled nothing")
	}

	spec := New(p.Prog, Options{EA: EAPartial, Speculate: true, CompileThreshold: 5, CheckLevel: check.Basic, JIT: shared})
	for i := 0; i < 10; i++ {
		callInt(t, spec, p.Entry, 5)
	}
	if spec.CompiledGraph(p.Entry) == nil {
		t.Fatal("speculating VM never tiered up")
	}
	if got := spec.Stats().WarmInstalls; got != 0 {
		t.Fatalf("speculating VM took %d cache-first installs before any deopt", got)
	}
	if inv := spec.Interp.Profile.Invocations(p.Entry); inv < 5 {
		t.Fatalf("speculating VM compiled after %d interpreted calls, want its own warm-up", inv)
	}

	// The pruned branch is taken: deopt, invalidate, forbid speculation.
	before := shared.Stats()
	if v := callInt(t, spec, p.Entry, 200); v.I != 201 {
		t.Fatalf("deopt result = %d, want 201", v.I)
	}
	if spec.Stats().InvalidatedMethods != 1 || spec.CompiledGraph(p.Entry) != nil {
		t.Fatalf("speculation failure did not invalidate: %+v", spec.Stats())
	}
	if v := callInt(t, spec, p.Entry, 200); v.I != 201 {
		t.Fatalf("post-deopt result = %d, want 201", v.I)
	}
	after := shared.Stats()
	st := spec.Stats()
	if spec.CompiledGraph(p.Entry) == nil || st.WarmInstalls != 1 {
		t.Fatalf("non-speculative artifact not picked up at the next call: %+v", st)
	}
	if after.Compiled != before.Compiled || st.Recompilations != 0 {
		t.Fatalf("pipeline ran after the deopt: broker %d → %d compiles, %d recompilations",
			before.Compiled, after.Compiled, st.Recompilations)
	}
	if after.CacheHits != before.CacheHits+1 {
		t.Fatalf("cache hits %d → %d, want one more (the warm install)", before.CacheHits, after.CacheHits)
	}
	if spec.Env.Stats.Deopts != 1 {
		t.Fatalf("deopts = %d, want 1", spec.Env.Stats.Deopts)
	}
}

// TestWarmInstallAccounting: a probe that misses leaves no trace in the
// broker's counters (the hit rate keeps describing submissions), a probe
// that hits is one cache hit and one installation, and the vm_compile event
// names what asked for the code.
func TestWarmInstallAccounting(t *testing.T) {
	prog := loadExample(t, "../../examples/pairloop.mj")
	shared := sharedBroker(t)
	opts := Options{EA: EAPartial, CompileThreshold: 20, OSRThreshold: 1000, CheckLevel: check.Basic, JIT: shared}

	first := New(prog, opts)
	if _, err := first.Run(); err != nil {
		t.Fatal(err)
	}
	cold := shared.Stats()
	if cold.CacheHits != 0 || cold.Compiled == 0 || cold.CacheMisses != cold.Compiled {
		t.Fatalf("cold run: %+v (first-call probes that miss must count as nothing)", cold)
	}
	if first.Stats().WarmInstalls != 0 {
		t.Fatalf("cold VM reports %d warm installs", first.Stats().WarmInstalls)
	}

	var events []obs.Event
	warmOpts := opts
	warmOpts.Sink = obs.NewSink(obs.FuncBackend(func(e *obs.Event) { events = append(events, *e) }))
	second := New(prog, warmOpts)
	if _, err := second.Run(); err != nil {
		t.Fatal(err)
	}
	warm := shared.Stats()
	st := second.Stats()
	if st.WarmInstalls == 0 || st.WarmInstalls != st.CompiledMethods+st.OSRCompilations {
		t.Fatalf("warm VM: %+v, want every install cache-first", st)
	}
	if warm.Compiled != cold.Compiled || warm.CacheMisses != cold.CacheMisses {
		t.Fatalf("warm run touched the pipeline or counted a miss: %+v → %+v", cold, warm)
	}
	if warm.CacheHits != st.WarmInstalls || warm.Installed != cold.Installed+st.WarmInstalls {
		t.Fatalf("warm run accounting: %+v → %+v for %d warm installs", cold, warm, st.WarmInstalls)
	}
	if second.Env.Stats.Allocations >= first.Env.Stats.Allocations {
		t.Fatalf("warm VM allocated %d, cold %d: it should run compiled from the first back edge",
			second.Env.Stats.Allocations, first.Env.Stats.Allocations)
	}
	if !sameOutput(first.Env.Output, second.Env.Output) {
		t.Fatalf("warm output %v, cold %v", second.Env.Output, first.Env.Output)
	}
	var cacheFirst int64
	for _, e := range events {
		if e.Kind == obs.KindVMCompile {
			if e.Reason != obs.TriggerCacheFirst {
				t.Fatalf("vm_compile of %s triggered by %q, want %q", e.Method, e.Reason, obs.TriggerCacheFirst)
			}
			cacheFirst++
		}
	}
	if cacheFirst != st.WarmInstalls {
		t.Fatalf("%d cache-first vm_compile events for %d warm installs", cacheFirst, st.WarmInstalls)
	}
}

// TestWarmInstallRace hammers the first-call path under the race detector:
// one VM tiers up on a shared asynchronous broker while other VMs — over the
// same link and over fresh links of the same source, which must rebind and
// re-verify every artifact they take — keep starting, probing the cache at
// whatever state it is in, and running. Every VM must compute the
// interpreter's output, and VMs started once the cache is populated must
// install from it.
func TestWarmInstallRace(t *testing.T) {
	src, err := os.ReadFile("../../examples/cachekey.mj")
	if err != nil {
		t.Fatal(err)
	}
	link := func() *bc.Program {
		prog, err := mj.Compile(string(src), "Main.main")
		if err != nil {
			t.Error(err)
		}
		return prog
	}
	prog := link()
	ref := New(prog, Options{Interpret: true})
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	want := ref.Env.Output[0]

	shared := broker.New(broker.Options{Workers: 2, Check: check.Basic})
	defer shared.Close()
	opts := Options{EA: EAPartial, CompileThreshold: 4, OSRThreshold: 50, JIT: shared}

	// runVM is called from several goroutines: it reports through t.Error.
	runVM := func(p *bc.Program, runs int) Stats {
		machine := New(p, opts)
		defer machine.Close()
		for r := 0; r < runs; r++ {
			if _, err := machine.Run(); err != nil {
				t.Error(err)
				return Stats{}
			}
		}
		machine.DrainJIT()
		for m, cerr := range machine.FailedCompilations() {
			t.Errorf("compiling %s: %v", m.QualifiedName(), cerr)
		}
		for i, v := range machine.Env.Output {
			if v != want {
				t.Errorf("run %d printed %d, interpreter %d", i, v, want)
			}
		}
		return machine.Stats()
	}

	populated := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(populated)
		runVM(prog, 40)
	}()
	const hammers = 6
	lastWarm := make([]int64, hammers)
	for h := 0; h < hammers; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			for last := false; !last; {
				select {
				case <-populated:
					last = true
				default:
				}
				p := prog
				if h%2 == 1 {
					p = link() // foreign link: rebind + check.Graph at install
				}
				lastWarm[h] = runVM(p, 3).WarmInstalls
			}
		}(h)
	}
	wg.Wait()
	for h, n := range lastWarm {
		if n == 0 {
			t.Errorf("hammer %d: a VM started on the populated cache installed nothing cache-first", h)
		}
	}
}

// TestBackEdgeBelowThresholdStaysCheap is the guard for the interpreted
// loop's hot path: a back edge below the OSR threshold — past the header's
// first, which pays the one cache probe — allocates nothing, whether or not
// the VM holds OSR code for other loops (the tier-up table is read without
// locking, so there is nothing to contend on either).
func TestBackEdgeBelowThresholdStaysCheap(t *testing.T) {
	prog := loadExample(t, "../../examples/pairloop.mj")
	machine := New(prog, Options{EA: EAPartial, OSRThreshold: 100})
	// A back edge of some loop the VM holds no code for.
	f := &interp.Frame{Method: prog.Main}
	check := func(when string) {
		t.Helper()
		allocs := testing.AllocsPerRun(1000, func() {
			if _, entered, err := machine.osrHook(f, 50); entered || err != nil {
				t.Fatalf("below-threshold back edge entered=%v err=%v", entered, err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: below-threshold back edge allocated %.1f times, want 0", when, allocs)
		}
	}
	check("no OSR code")
	if _, err := machine.Run(); err != nil {
		t.Fatal(err)
	}
	if machine.Stats().OSREntries == 0 {
		t.Fatal("the run installed no OSR code; second half is vacuous")
	}
	check("OSR code for another loop")

	// Past the threshold a loop that will not be submitted — it failed for
	// good, or it is waiting out a backoff — is as cheap: the ladder reads
	// atomics of the header's unit and nothing else.
	past := func(when string, pc int, count int64) {
		t.Helper()
		frame := &interp.Frame{Method: prog.Main, PC: pc}
		submitted := machine.Broker().Stats().Submitted
		allocs := testing.AllocsPerRun(1000, func() {
			if _, entered, err := machine.osrHook(frame, count); entered || err != nil {
				t.Fatalf("%s: back edge entered=%v err=%v", when, entered, err)
			}
		})
		if allocs != 0 || machine.Broker().Stats().Submitted != submitted {
			t.Fatalf("%s: back edge past the threshold allocated %.1f times, submitted %d compiles; want 0 and 0",
				when, allocs, machine.Broker().Stats().Submitted-submitted)
		}
	}
	const failedPC, backedOffPC = 1, 2 // headers of no real loop: the ladder does not care
	machine.recordFailure(prog.Main, machine.cacheKey(prog.Main, failedPC), errors.New("boom"))
	past("permanently failed loop", failedPC, 500)
	for i := 0; i < 3; i++ {
		machine.rearm(machine.unit(prog.Main, backedOffPC), "test")
	}
	past("backed-off loop", backedOffPC, 200) // re-armed for 100<<2 back edges
}

// BenchmarkBackEdgeBelowThreshold prices the hook on that path (the
// interpreter pays it on top of Profile.CountBackEdge on every back edge).
func BenchmarkBackEdgeBelowThreshold(b *testing.B) {
	prog := loadExample(b, "../../examples/pairloop.mj")
	machine := New(prog, Options{EA: EAPartial, OSRThreshold: 100})
	if _, err := machine.Run(); err != nil {
		b.Fatal(err)
	}
	f := &interp.Frame{Method: prog.Main}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		machine.osrHook(f, 50)
	}
}
