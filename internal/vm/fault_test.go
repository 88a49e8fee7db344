package vm

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pea/internal/bc"
	"pea/internal/broker"
	"pea/internal/budget"
	"pea/internal/check"
	"pea/internal/mj"
	"pea/internal/rt"
)

// panicAt builds a fault hook that panics at one named point, optionally
// only for methods whose qualified name contains filter.
func panicAt(point, filter string) func(string, string) {
	return func(p, method string) {
		if p == point && (filter == "" || strings.Contains(method, filter)) {
			panic(fmt.Sprintf("injected fault at %s compiling %s", p, method))
		}
	}
}

// TestSyncPanicContainedMethodDegrades: in the default synchronous mode a
// compiler panic surfaces exactly where HotSpot's would — as a contained,
// per-method failure. The triggering call completes interpreted with the
// right result, the panic is recorded as a permanent *PanicError, and the
// method never compiles (or resubmits) again.
func TestSyncPanicContainedMethodDegrades(t *testing.T) {
	prog, m := buildCounter(t)
	machine := New(prog, withJIT(t, Options{
		EA: EAPartial, CompileThreshold: 2, CheckLevel: check.Basic,
	}, broker.Options{InjectFault: panicAt(broker.FaultCompile, "")}))
	for i := 0; i < 10; i++ {
		v, err := machine.Call(m, []rt.Value{rt.IntValue(int64(i))})
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if v.I != int64(i)+1 {
			t.Fatalf("call %d = %d, want %d (victim must stay interpreted-correct)", i, v.I, i+1)
		}
	}
	if machine.CompiledGraph(m) != nil {
		t.Fatal("panicked compile installed code")
	}
	cerr := machine.CompileError(m)
	var pe *broker.PanicError
	if !errors.As(cerr, &pe) {
		t.Fatalf("CompileError = %v (%T), want *PanicError", cerr, cerr)
	}
	bs := machine.Broker().Stats()
	if bs.Panics != 1 {
		t.Fatalf("broker panics = %d, want 1 (blacklist must stop resubmission)", bs.Panics)
	}
}

// TestAsyncPanicContainment: an injected panic on a background worker must
// not crash the VM or wedge the broker — Drain returns, the in-flight
// entry clears, and the victim stays interpreted while innocent methods
// still compile.
func TestAsyncPanicContainment(t *testing.T) {
	prog := loadExample(t, "../../examples/cachekey.mj")

	ref := New(prog, Options{Interpret: true})
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	// Panic on every compile of methods whose name contains "make" (the
	// allocation helpers in the example); everything else compiles.
	machine := New(prog, withJIT(t, Options{
		EA: EAPartial, CompileThreshold: 4, CheckLevel: check.Basic,
	}, broker.Options{Workers: 2, InjectFault: panicAt(broker.FaultCompile, "Main.")}))
	for i := 0; i < 30; i++ {
		if _, err := machine.Run(); err != nil {
			t.Fatal(err)
		}
	}
	machine.DrainJIT() // must return despite the panics
	for i, v := range machine.Env.Output {
		if v != ref.Env.Output[0] {
			t.Fatalf("run %d printed %v, interpreter printed %v", i, v, ref.Env.Output[0])
		}
	}
	if machine.Broker().Stats().Panics == 0 {
		t.Fatal("fault hook never fired")
	}
	for m, cerr := range machine.FailedCompilations() {
		var pe *broker.PanicError
		if !errors.As(cerr, &pe) {
			t.Fatalf("%s: non-panic failure leaked in: %v", m.QualifiedName(), cerr)
		}
		if machine.Broker().Pending(m, broker.NoOSR) {
			t.Fatalf("%s still in flight after containment", m.QualifiedName())
		}
	}
}

// TestCrashReproCapturedAndReplayable: a contained panic with CrashDir set
// produces a minimized JSON reproducer whose recorded body still triggers
// the same panic when replayed through check.Repro.Apply — the system's
// answer to HotSpot replay files.
func TestCrashReproCapturedAndReplayable(t *testing.T) {
	dir := t.TempDir()
	hook := panicAt("opt", "C.m") // a VM pipeline point, so the minimizer reproduces it
	prog, m := buildCounter(t)
	machine := New(prog, withJIT(t, Options{
		EA: EAPartial, CompileThreshold: 2, Seed: 7, CrashDir: dir,
	}, broker.Options{InjectFault: hook}))
	for i := 0; i < 5; i++ {
		if _, err := machine.Call(m, []rt.Value{rt.IntValue(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if machine.Stats().CrashRepros != 1 {
		t.Fatalf("crash repros = %d, want 1", machine.Stats().CrashRepros)
	}
	path := filepath.Join(dir, "crash-C_m.json")
	r, err := check.LoadRepro(path)
	if err != nil {
		t.Fatalf("repro not written: %v", err)
	}
	if r.Method != "C.m" || r.Seed != 7 {
		t.Fatalf("repro header = %+v", r)
	}
	if !strings.Contains(r.Note, "minimized") {
		t.Fatalf("repro note %q does not record minimization", r.Note)
	}
	if len(r.Code) == 0 || len(r.Code) > len(m.Code) {
		t.Fatalf("minimized body has %d instructions, original %d", len(r.Code), len(m.Code))
	}
	// The original method must be untouched by minimization (it ran on a
	// clone while the interpreter could still be executing it).
	if v, err := machine.Call(m, []rt.Value{rt.IntValue(41)}); err != nil || v.I != 42 {
		t.Fatalf("original method corrupted by minimization: %v, %v", v, err)
	}

	// Replay: patch a fresh program with the recorded body and recompile
	// under the same fault configuration — the panic must reproduce.
	prog2, _ := buildCounter(t)
	m2, err := r.Apply(prog2)
	if err != nil {
		t.Fatalf("repro does not apply: %v", err)
	}
	replay := New(prog2, withJIT(t, Options{EA: EAPartial}, broker.Options{InjectFault: hook}))
	panicked := func() (p bool) {
		defer func() { p = recover() != nil }()
		_, _ = replay.Compile(m2)
		return false
	}()
	if !panicked {
		t.Fatal("replayed repro did not reproduce the panic")
	}
	// Without the fault, the minimized body is an ordinary valid method.
	clean := New(prog2, Options{EA: EAPartial, CheckLevel: check.Basic})
	if _, err := clean.Compile(m2); err != nil {
		t.Fatalf("minimized repro body does not compile cleanly: %v", err)
	}
}

// TestOSRFailureDoesNotPoisonMethod is the regression test for the
// failure-bookkeeping bug where any OSR-entry failure was recorded against
// the whole method: a failed OSR compile must leave CompileError(m) nil
// and the method still eligible for (and capable of) standard tier-up.
func TestOSRFailureDoesNotPoisonMethod(t *testing.T) {
	prog, m := buildCounter(t)
	machine := New(prog, Options{EA: EAPartial, CompileThreshold: 2, OSRThreshold: 100, CheckLevel: check.Basic})

	machine.recordFailure(m, broker.Key{Name: m.QualifiedName(), EntryBCI: 5}, errors.New("osr boom"))

	if err := machine.CompileError(m); err != nil {
		t.Fatalf("OSR-only failure poisoned the method: CompileError = %v", err)
	}
	if err := machine.OSRCompileError(m, 5); err == nil {
		t.Fatal("OSR failure not recorded per entry point")
	}
	failed := machine.FailedCompilations()
	if ferr, ok := failed[m]; !ok || !strings.Contains(ferr.Error(), "osr@5") {
		t.Fatalf("FailedCompilations = %v, want an osr@5-annotated entry", failed)
	}
	// The method itself must still tier up at call boundaries.
	for i := 0; i < 5; i++ {
		if _, err := machine.Call(m, []rt.Value{rt.IntValue(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if machine.CompiledGraph(m) == nil {
		t.Fatal("method with a failed OSR entry never compiled its standard entry")
	}
}

// TestOSRFaultEndToEnd drives the same regression through the real broker
// path: a panic injected only into OSR graph building blacklists the loop
// entry, while the enclosing method still compiles and the program output
// is unchanged.
func TestOSRFaultEndToEnd(t *testing.T) {
	ref := runMode(t, hotLoopSrc, Options{Interpret: true})

	prog, err := mjCompile(hotLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	machine := New(prog, withJIT(t, Options{
		EA: EAPartial, CompileThreshold: 2, OSRThreshold: 100, CheckLevel: check.Basic,
	}, broker.Options{InjectFault: panicAt("build-osr", "")}))
	defer machine.Close()
	for i := 0; i < 4; i++ {
		if _, err := machine.Run(); err != nil {
			t.Fatal(err)
		}
	}
	machine.DrainJIT()
	if !sameOutput(machine.Env.Output[:len(ref.output)], ref.output) {
		t.Fatal("output diverged under OSR fault injection")
	}
	if machine.Stats().OSRCompilations != 0 {
		t.Fatal("panicked OSR compile installed code")
	}
	if machine.Broker().Stats().Panics == 0 {
		t.Fatal("OSR fault never fired")
	}
	sum := prog.ClassByName("Main").MethodByName("sum")
	if err := machine.CompileError(sum); err != nil {
		t.Fatalf("OSR panic poisoned Main.sum: %v", err)
	}
	if machine.methods[sum.ID].entry.failure.Load() != nil {
		t.Fatal("OSR panic blacklisted Main.sum's standard entry")
	}
	// The standard entry must still compile cleanly (the enclosing method
	// itself tiers up through its caller, which inlines it, so assert
	// compilability directly rather than installation).
	if _, err := machine.Compile(sum); err != nil {
		t.Fatalf("standard-entry compile of Main.sum failed after OSR panic: %v", err)
	}
}

// buildMethods assembles n independent trivial methods in one program.
func buildMethods(t *testing.T, n int) (*bc.Program, []*bc.Method) {
	t.Helper()
	a := bc.NewAssembler()
	c := a.Class("C", "")
	for i := 0; i < n; i++ {
		mb := c.Method(fmt.Sprintf("m%d", i), []bc.Kind{bc.KindInt}, bc.KindInt, true)
		mb.Load(0).Const(int64(i + 1)).Add().ReturnValue()
	}
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	ms := make([]*bc.Method, n)
	for i := range ms {
		ms[i] = p.ClassByName("C").MethodByName(fmt.Sprintf("m%d", i))
	}
	return p, ms
}

// TestQueueFullRejectionRearms is the regression test for rejected
// submissions: a method bounced off a full compile queue must become
// submit-eligible again (with backoff) and eventually compile once the
// queue drains, instead of being dropped or hammering Submit on every
// call.
func TestQueueFullRejectionRearms(t *testing.T) {
	prog, ms := buildMethods(t, 3)
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	machine := New(prog, withJIT(t, Options{
		EA: EAPartial, CompileThreshold: 2, CheckLevel: check.Basic,
	}, broker.Options{Workers: 1, QueueCap: 1, InjectFault: func(point, method string) {
		if point == broker.FaultCompile {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
		}
	}}))
	call := func(m *bc.Method) {
		t.Helper()
		if _, err := machine.Call(m, []rt.Value{rt.IntValue(1)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		call(ms[0]) // third call submits; worker parks inside the compile
	}
	<-started
	for i := 0; i < 3; i++ {
		call(ms[1]) // fills the 1-slot queue
	}
	for i := 0; i < 3; i++ {
		call(ms[2]) // rejected: queue full → re-armed with backoff
	}
	if machine.Broker().Stats().Rejected == 0 {
		t.Fatal("queue bound never rejected — test did not exercise the path")
	}
	if machine.Stats().Rearms == 0 {
		t.Fatal("rejected method was not re-armed")
	}
	if err := machine.CompileError(ms[2]); err != nil {
		t.Fatalf("rejection must not be a permanent failure: %v", err)
	}
	close(release)
	machine.DrainJIT()
	// The re-armed method becomes eligible again once its invocation count
	// passes the backoff target; keep calling until the broker accepts and
	// installs it.
	for i := 0; i < 500 && machine.CompiledGraph(ms[2]) == nil; i++ {
		call(ms[2])
		machine.DrainJIT()
	}
	if machine.CompiledGraph(ms[2]) == nil {
		t.Fatal("rejected method never compiled after the queue drained")
	}
}

// TestCompileBudgetsAreTransient: deadline and IR-node budget overruns
// degrade the method to the interpreter with backoff — counted as
// transient, never recorded as permanent failures.
func TestCompileBudgetsAreTransient(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"deadline", Options{EA: EAPartial, CompileThreshold: 2, CompileDeadline: time.Nanosecond}},
		{"nodes", Options{EA: EAPartial, CompileThreshold: 2, MaxIRNodes: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, m := buildCounter(t)
			machine := New(prog, tc.opts)
			for i := 0; i < 12; i++ {
				v, err := machine.Call(m, []rt.Value{rt.IntValue(int64(i))})
				if err != nil {
					t.Fatal(err)
				}
				if v.I != int64(i)+1 {
					t.Fatalf("call %d = %d, want %d", i, v.I, i+1)
				}
			}
			if machine.CompiledGraph(m) != nil {
				t.Fatal("over-budget compile installed code")
			}
			st := machine.Stats()
			if st.TransientFailures == 0 || st.Rearms == 0 {
				t.Fatalf("stats = %+v, want transient failures and re-arms", st)
			}
			if err := machine.CompileError(m); err != nil {
				t.Fatalf("budget overrun recorded as permanent: %v", err)
			}
			if len(machine.FailedCompilations()) != 0 {
				t.Fatal("budget overrun leaked into FailedCompilations")
			}
			// Backoff: re-arms grow geometrically, so 12 calls see far
			// fewer compile attempts than the no-backoff worst case.
			if st.TransientFailures > 4 {
				t.Fatalf("%d compile attempts in 12 calls — backoff not applied", st.TransientFailures)
			}
		})
	}
}

// TestDirectCompileSurfacesBudgetError pins the structured error shape on
// the broker-bypassing Compile path.
func TestDirectCompileSurfacesBudgetError(t *testing.T) {
	prog, m := buildCounter(t)
	machine := New(prog, Options{EA: EAPartial, MaxIRNodes: 1})
	_, err := machine.Compile(m)
	if !budget.IsBudget(err) {
		t.Fatalf("Compile error = %v, want a budget error", err)
	}
	var be *budget.Err
	if !errors.As(err, &be) || be.Kind != "nodes" || be.Method != "C.m" || be.Limit != 1 {
		t.Fatalf("structured budget error = %+v", be)
	}
}

// TestDisabledBudgetNeverReadsClock is the zero-overhead guard for the
// default configuration: with no deadline configured, a full compile must
// not read the clock on behalf of budget checks (budget.ClockReads is the
// proof counter, in the same spirit as ir.DomTreesBuilt).
func TestDisabledBudgetNeverReadsClock(t *testing.T) {
	prog, m := buildCounter(t)
	machine := New(prog, Options{EA: EAPartial, Speculate: true, CheckLevel: check.Basic})
	before := budget.ClockReads()
	if _, err := machine.Compile(m); err != nil {
		t.Fatal(err)
	}
	if got := budget.ClockReads() - before; got != 0 {
		t.Fatalf("disabled budget read the clock %d times during a compile", got)
	}
}

// TestFaultInjectionHammer exercises the whole containment stack under the
// race detector: several async VMs tier up the same program while an
// injected fault panics every other compile. Nothing may deadlock, every
// recorded failure must be a contained panic, and every VM's output must
// match the interpreter.
func TestFaultInjectionHammer(t *testing.T) {
	prog := loadExample(t, "../../examples/cachekey.mj")
	ref := New(prog, Options{Interpret: true})
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}

	var ctr atomic.Int64
	hook := func(point, method string) {
		if point == broker.FaultCompile && ctr.Add(1)%2 == 0 {
			panic("injected hammer fault compiling " + method)
		}
	}

	const vms = 3
	machines := make([]*VM, vms)
	for i := range machines {
		machines[i] = New(prog, withJIT(t, Options{
			EA: EAPartial, CompileThreshold: 4, CheckLevel: check.Basic,
		}, broker.Options{Workers: 2, InjectFault: hook}))
	}
	var wg sync.WaitGroup
	errs := make([]error, vms)
	for i := 0; i < vms; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < 15; r++ {
				if _, err := machines[i].Run(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	totalPanics := int64(0)
	for i, m := range machines {
		if errs[i] != nil {
			t.Fatalf("vm %d: %v", i, errs[i])
		}
		m.DrainJIT() // must return: no wedged queue, no stuck in-flight entries
		totalPanics += m.Broker().Stats().Panics
		for meth, cerr := range m.FailedCompilations() {
			var pe *broker.PanicError
			if !errors.As(cerr, &pe) {
				t.Fatalf("vm %d: %s failed with a non-injected error: %v", i, meth.QualifiedName(), cerr)
			}
		}
		for j, v := range m.Env.Output {
			if v != ref.Env.Output[0] {
				t.Fatalf("vm %d run %d printed %v, interpreter printed %v", i, j, v, ref.Env.Output[0])
			}
		}
	}
	if totalPanics == 0 {
		t.Fatal("hammer never tripped the fault hook")
	}
}

// TestFaultHookCountsPerBroker: the pipeline's fault points fire the hook of
// the broker a VM submits to, so an every-N spec counts visits across every
// VM sharing the broker. Two VMs each compile one method once (two programs,
// so neither replays the other's artifact); with "pea:panic:2" the second
// PEA run of the broker panics, and only it.
func TestFaultHookCountsPerBroker(t *testing.T) {
	hook, err := broker.ParseFault("pea:panic:2")
	if err != nil {
		t.Fatal(err)
	}
	jit := broker.New(broker.Options{InjectFault: hook})
	defer jit.Close()
	panics := 0
	for _, k := range []int{1, 2} {
		prog, err := mjCompile(fmt.Sprintf(`class Main {
	static int f(int x) { return x + %d; }
	static void main() { print(f(1)); }
}`, k))
		if err != nil {
			t.Fatal(err)
		}
		machine := New(prog, Options{EA: EAPartial, CompileThreshold: 2, CheckLevel: check.Basic, JIT: jit})
		f := prog.ClassByName("Main").MethodByName("f")
		for i := 0; i < 3; i++ {
			if _, err := machine.Call(f, []rt.Value{rt.IntValue(1)}); err != nil {
				t.Fatal(err)
			}
		}
		for _, cerr := range machine.FailedCompilations() {
			var pe *broker.PanicError
			if !errors.As(cerr, &pe) {
				t.Fatalf("program %d: non-injected failure %v", k, cerr)
			}
			panics++
		}
	}
	if panics != 1 {
		t.Fatalf("%d compiler panics across the two VMs, want exactly 1 (the broker's second pea visit)", panics)
	}
	if n := jit.Stats().Panics; n != 1 {
		t.Fatalf("broker counted %d panics, want 1", n)
	}
}

// mjCompile builds a program from source without the runMode harness
// (which fails the test on any recorded compile failure — here failures
// are the point).
func mjCompile(src string) (*bc.Program, error) {
	return mj.Compile(src, "Main.main")
}
