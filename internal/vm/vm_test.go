package vm

import (
	"strings"
	"testing"

	"pea/internal/bc"
	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/rt"
	"pea/internal/testprog"
)

// runVM executes the program entry under the given options, warming up
// enough to cross the compile threshold, and returns the last result.
func runVM(t *testing.T, p testprog.Program, opts Options, args []int64, warmup int) (rt.Value, *VM, error) {
	t.Helper()
	opts.MaxSteps = 20_000_000
	opts.CheckLevel = check.Basic
	machine := New(p.Prog, opts)
	vals := make([]rt.Value, len(args))
	for i, a := range args {
		vals[i] = rt.IntValue(a)
	}
	var (
		v   rt.Value
		err error
	)
	for i := 0; i < warmup; i++ {
		v, err = machine.Call(p.Entry, vals)
		if err != nil {
			return v, machine, err
		}
	}
	for m, cerr := range machine.FailedCompilations() {
		t.Fatalf("compilation of %s failed: %v", m.QualifiedName(), cerr)
	}
	return v, machine, err
}

// TestZeroBackendIsClosure pins the zero value: Options{} runs the measured
// engine, and the oracle is chosen only by name.
func TestZeroBackendIsClosure(t *testing.T) {
	var opts Options
	if opts.Backend != BackendClosure || opts.Backend.String() != "closure" {
		t.Fatalf("zero Backend is %v, want closure", opts.Backend)
	}
}

// TestAllModesAgree runs every corpus program — the throwing ones included —
// under every VM configuration and demands identical results and outputs,
// with escape analysis modes never allocating more than the interpreter. The
// warm configuration is a second VM on a shared broker the first populated:
// it runs the same calls on code installed cache-first, and must trap with
// the interpreter's exact trap identity.
func TestAllModesAgree(t *testing.T) {
	configs := []struct {
		name string
		opts Options
		warm bool
	}{
		{name: "interp", opts: Options{Interpret: true}},
		{name: "jit", opts: Options{EA: EAOff, Backend: BackendOracle}},
		{name: "jit-ea", opts: Options{EA: EAFlowInsensitive, Backend: BackendOracle}},
		{name: "jit-pea", opts: Options{EA: EAPartial, Backend: BackendOracle}},
		{name: "jit-pea-spec", opts: Options{EA: EAPartial, Speculate: true, Backend: BackendOracle}},
		{name: "jit-pea-warm", opts: Options{EA: EAPartial, Backend: BackendOracle}, warm: true},
		{name: "closure", opts: Options{EA: EAOff, Backend: BackendClosure}},
		{name: "closure-pea-spec", opts: Options{EA: EAPartial, Speculate: true, Backend: BackendClosure}},
		{name: "closure-pea-osr", opts: Options{EA: EAPartial, OSRThreshold: 8, Backend: BackendClosure}},
	}
	const warmup = 30
	for _, p := range testprog.Corpus() {
		t.Run(p.Name, func(t *testing.T) {
			for _, args := range p.ArgSets {
				var ref rt.Value
				var refSet bool
				var refErr error
				for _, cfg := range configs {
					if cfg.warm {
						cfg.opts.JIT = sharedBroker(t)
						runVM(t, p, cfg.opts, args, warmup)
					}
					v, machine, err := runVM(t, p, cfg.opts, args, warmup)
					if !refSet {
						ref, refErr, refSet = v, err, true
						continue
					}
					if (err == nil) != (refErr == nil) {
						t.Fatalf("%s args %v: err=%v, interp err=%v", cfg.name, args, err, refErr)
					}
					if err == nil && !v.Equal(ref) {
						t.Fatalf("%s args %v: got %v, interp %v", cfg.name, args, v, ref)
					}
					if !cfg.warm {
						continue
					}
					if err != nil && err.Error() != refErr.Error() {
						t.Fatalf("%s args %v: trap %q, interp %q", cfg.name, args, err, refErr)
					}
					// Whatever the first VM compiled, the second takes from
					// the cache at first call; it compiles nothing itself.
					if st := machine.Stats(); st.WarmInstalls != st.CompiledMethods {
						t.Fatalf("%s args %v: %+v, want every install cache-first", cfg.name, args, st)
					}
				}
			}
		})
	}
}

// TestJITCompilesHotMethods checks the compile policy.
func TestJITCompilesHotMethods(t *testing.T) {
	p := corpusProg(t, "cacheKey")
	_, machine, err := runVM(t, p, Options{EA: EAPartial, CompileThreshold: 5}, []int64{20}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if machine.Stats().CompiledMethods == 0 {
		t.Fatal("nothing was compiled")
	}
	if machine.CompiledGraph(p.Entry) == nil {
		t.Fatal("hot entry method not compiled")
	}
}

// TestPEADoesNotIncreaseAllocations compares long-run allocation counts.
func TestPEADoesNotIncreaseAllocations(t *testing.T) {
	for _, p := range testprog.Corpus() {
		args := p.ArgSets[len(p.ArgSets)-1]
		_, base, err1 := runVM(t, p, Options{EA: EAOff}, args, 40)
		_, peavm, err2 := runVM(t, p, Options{EA: EAPartial}, args, 40)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: error divergence %v vs %v", p.Name, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if peavm.Env.Stats.Allocations > base.Env.Stats.Allocations {
			t.Fatalf("%s: PEA allocated more: %d vs %d", p.Name,
				peavm.Env.Stats.Allocations, base.Env.Stats.Allocations)
		}
		if peavm.Env.Stats.MonitorOps > base.Env.Stats.MonitorOps {
			t.Fatalf("%s: PEA locked more: %d vs %d", p.Name,
				peavm.Env.Stats.MonitorOps, base.Env.Stats.MonitorOps)
		}
	}
}

// TestEAWeakerThanPEA: on the partial-escape pattern, flow-insensitive EA
// must keep the allocation (it escapes on one path) while PEA removes it
// on the hot path — the paper's central claim.
func TestEAWeakerThanPEA(t *testing.T) {
	p := corpusProg(t, "partialEscape")
	args := []int64{5} // non-escaping branch
	const warmup = 50

	_, base, err := runVM(t, p, Options{EA: EAOff, CompileThreshold: 5}, args, warmup)
	if err != nil {
		t.Fatal(err)
	}
	_, eavm, err := runVM(t, p, Options{EA: EAFlowInsensitive, CompileThreshold: 5}, args, warmup)
	if err != nil {
		t.Fatal(err)
	}
	_, peavm, err := runVM(t, p, Options{EA: EAPartial, CompileThreshold: 5}, args, warmup)
	if err != nil {
		t.Fatal(err)
	}
	if eavm.Env.Stats.Allocations != base.Env.Stats.Allocations {
		t.Fatalf("flow-insensitive EA should not optimize a partially escaping object: %d vs %d",
			eavm.Env.Stats.Allocations, base.Env.Stats.Allocations)
	}
	if peavm.Env.Stats.Allocations >= base.Env.Stats.Allocations {
		t.Fatalf("PEA should remove hot-path allocations: %d vs %d",
			peavm.Env.Stats.Allocations, base.Env.Stats.Allocations)
	}
}

// TestEARemovesFullyLocalObjects: the baseline still handles the classic
// non-escaping case.
func TestEARemovesFullyLocalObjects(t *testing.T) {
	p := corpusProg(t, "nonEscaping")
	_, base, err := runVM(t, p, Options{EA: EAOff, CompileThreshold: 5}, []int64{7}, 50)
	if err != nil {
		t.Fatal(err)
	}
	_, eavm, err := runVM(t, p, Options{EA: EAFlowInsensitive, CompileThreshold: 5}, []int64{7}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if eavm.Env.Stats.Allocations >= base.Env.Stats.Allocations {
		t.Fatalf("EA failed on a never-escaping object: %d vs %d",
			eavm.Env.Stats.Allocations, base.Env.Stats.Allocations)
	}
}

// TestSpeculativeDeopt forces a pruned branch to be taken and checks that
// execution deoptimizes, produces the right result, and materializes the
// virtual object.
func TestSpeculativeDeopt(t *testing.T) {
	p := corpusProg(t, "partialEscape")
	opts := Options{EA: EAPartial, Speculate: true, CompileThreshold: 5, MaxSteps: 20_000_000, CheckLevel: check.Basic}
	machine := New(p.Prog, opts)

	// Warm up on the non-escaping branch only: the escaping branch is
	// never taken and gets pruned to a deopt.
	hot := []rt.Value{rt.IntValue(5)}
	for i := 0; i < 40; i++ {
		if _, err := machine.Call(p.Entry, hot); err != nil {
			t.Fatal(err)
		}
	}
	if machine.CompiledGraph(p.Entry) == nil {
		t.Fatal("entry not compiled")
	}
	if machine.Env.Stats.Deopts != 0 {
		t.Fatalf("premature deopts: %d", machine.Env.Stats.Deopts)
	}

	// Now take the escaping branch: compiled code hits the Deopt, the
	// interpreter finishes the call, and the Key object must exist (it
	// is stored into the static sink by the interpreted continuation).
	v, err := machine.Call(p.Entry, []rt.Value{rt.IntValue(200)})
	if err != nil {
		t.Fatalf("deopt path failed: %v", err)
	}
	if v.I != 201 {
		t.Fatalf("deopt result = %d, want 201", v.I)
	}
	if machine.Env.Stats.Deopts != 1 {
		t.Fatalf("deopts = %d, want 1", machine.Env.Stats.Deopts)
	}
	sink := p.Prog.ClassByName("Box").StaticByName("sink")
	obj := machine.Env.GetStatic(sink)
	if obj.Ref == nil {
		t.Fatal("escaped object missing after deopt")
	}
	if got := obj.Ref.Fields[0].I; got != 200 {
		t.Fatalf("materialized field = %d, want 200", got)
	}
	// The method was invalidated and recompiles without speculation.
	if machine.Stats().InvalidatedMethods != 1 {
		t.Fatalf("invalidations = %d", machine.Stats().InvalidatedMethods)
	}
	for i := 0; i < 40; i++ {
		v, err := machine.Call(p.Entry, []rt.Value{rt.IntValue(200)})
		if err != nil {
			t.Fatal(err)
		}
		if v.I != 201 {
			t.Fatalf("post-invalidate result = %d", v.I)
		}
	}
	if machine.Env.Stats.Deopts != 1 {
		t.Fatalf("recompiled code still deopts: %d", machine.Env.Stats.Deopts)
	}
}

// TestDeoptThroughInlinedFrames: deopt inside inlined code rebuilds the
// whole frame chain.
func TestDeoptThroughInlinedFrames(t *testing.T) {
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	v := box.Field("v", bc.KindInt)
	sink := box.Static("sink", bc.KindRef)
	c := a.Class("C", "")
	// callee(x): b = new Box(v=x); if (x > 1000) { sink = b }; return b.v+1
	callee := c.Method("callee", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	l := callee.NewLocal(bc.KindRef)
	callee.New(box.Ref()).Store(l)
	callee.Load(l).Load(0).PutField(v)
	callee.Load(0).Const(1000).IfCmp(bc.CondLE, "ok")
	callee.Load(l).PutStatic(sink)
	callee.Label("ok").Load(l).GetField(v).Const(1).Add().ReturnValue()
	// caller(x): return callee(x) * 2
	caller := c.Method("caller", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	caller.Load(0).InvokeStatic(callee.Ref()).Const(2).Mul().ReturnValue()
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	m := prog.ClassByName("C").MethodByName("caller")

	machine := New(prog, Options{EA: EAPartial, Speculate: true, CompileThreshold: 5, CheckLevel: check.Basic, MaxSteps: 10_000_000})
	for i := 0; i < 40; i++ {
		got, err := machine.Call(m, []rt.Value{rt.IntValue(int64(i))})
		if err != nil {
			t.Fatal(err)
		}
		if got.I != int64(i+1)*2 {
			t.Fatalf("warmup result = %d", got.I)
		}
	}
	if machine.CompiledGraph(m) == nil {
		t.Fatal("caller not compiled")
	}
	got, err := machine.Call(m, []rt.Value{rt.IntValue(5000)})
	if err != nil {
		t.Fatalf("deopt through inlined frames: %v", err)
	}
	if got.I != 5001*2 {
		t.Fatalf("result = %d, want %d", got.I, 5001*2)
	}
	if machine.Env.Stats.Deopts != 1 {
		t.Fatalf("deopts = %d, want 1", machine.Env.Stats.Deopts)
	}
	obj := machine.Env.GetStatic(sink)
	if obj.Ref == nil || obj.Ref.Fields[0].I != 5000 {
		t.Fatalf("escaped object wrong after inlined deopt: %v", obj)
	}
}

func corpusProg(t *testing.T, name string) testprog.Program {
	t.Helper()
	for _, p := range testprog.Corpus() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("no corpus program %q", name)
	return testprog.Program{}
}

// TestUnlockTrapReasonIndependentOfTier: m(flag) allocates t (which PEA
// scalar-replaces) and then b, and when flag != 0 releases b's monitor
// without holding it. b's allocation serial therefore depends on the
// compiler configuration; the trap the guest sees must not.
func TestUnlockTrapReasonIndependentOfTier(t *testing.T) {
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	v := box.Field("v", bc.KindInt)
	m := a.Class("C", "").Method("m", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	tmp, b := m.NewLocal(bc.KindRef), m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(tmp)
	m.Load(tmp).Load(0).PutField(v)
	m.New(box.Ref()).Store(b)
	m.Load(0).If(bc.CondEQ, "done")
	m.Load(b).MonitorExit()
	m.Label("done").Load(tmp).GetField(v).ReturnValue()
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	meth := prog.ClassByName("C").MethodByName("m")

	var want string
	for i, opts := range []Options{
		{Interpret: true},
		{EA: EAOff, Backend: BackendClosure},
		{EA: EAPartial, Backend: BackendClosure},
		{EA: EAPartial, Backend: BackendOracle},
	} {
		opts.CompileThreshold = 5
		opts.CheckLevel = check.Basic
		machine := New(prog, opts)
		for n := 0; n < 30; n++ {
			if _, err := machine.Call(meth, []rt.Value{rt.IntValue(0)}); err != nil {
				t.Fatal(err)
			}
		}
		if !opts.Interpret && machine.CompiledGraph(meth) == nil {
			t.Fatalf("config %d never compiled m: %v", i, machine.CompileError(meth))
		}
		_, err := machine.Call(meth, []rt.Value{rt.IntValue(1)})
		if err == nil {
			t.Fatalf("config %d: unbalanced monitorexit did not trap", i)
		}
		if i == 0 {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("config %d traps with %q, the interpreter with %q", i, err, want)
		}
	}
	if !strings.Contains(want, "monitor exit on unlocked Box at C.m") {
		t.Errorf("trap reads %q", want)
	}
}

// TestStepBudgetSpansTiers: Options.MaxSteps is one budget for interpreted
// and compiled steps together. An interpreted call and a compiled call each
// take about 0.6 of the budget: either alone fits, and the two in one VM
// must exhaust it.
func TestStepBudgetSpansTiers(t *testing.T) {
	prog, err := mjCompile(`class Main {
	static int f(int n) {
		int s = 0;
		int i = 0;
		while (i < n) { s = s + i; i = i + 1; }
		return s;
	}
	static void main() { print(f(1)); }
}`)
	if err != nil {
		t.Fatal(err)
	}
	f := prog.ClassByName("Main").MethodByName("f")
	// run calls f(a), f(0), f(0), f(b) on a fresh VM whose threshold
	// installs f after its third call: f(a) runs interpreted, f(b) compiled.
	run := func(budget, a, b int64) error {
		machine := New(prog, Options{EA: EAPartial, CompileThreshold: 2, MaxSteps: budget})
		defer machine.Close()
		for i, n := range []int64{a, 0, 0, b} {
			if i == 3 && machine.unit(f, broker.NoOSR).installed() == nil {
				t.Fatal("f is not compiled after three calls")
			}
			if _, err := machine.Call(f, []rt.Value{rt.IntValue(n)}); err != nil {
				return err
			}
		}
		return nil
	}
	// steps is the smallest budget under which the calls complete.
	steps := func(a, b int64) int64 {
		lo, hi := int64(1), int64(1<<30)
		for lo < hi {
			if mid := (lo + hi) / 2; run(mid, a, b) == nil {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}

	const nInterp = 1000
	warm := steps(0, 0)
	perInterp := steps(nInterp, 0) - warm
	nCompiled := nInterp * perInterp / (steps(0, nInterp) - warm) // about perInterp compiled steps
	budget := perInterp * 10 / 6
	if err := run(budget, nInterp, 0); err != nil {
		t.Fatalf("the interpreted call alone: %v", err)
	}
	if err := run(budget, 0, nCompiled); err != nil {
		t.Fatalf("the compiled call alone: %v", err)
	}
	err = run(budget, nInterp, nCompiled)
	if err == nil || !strings.Contains(err.Error(), "step budget") {
		t.Fatalf("an interpreted and a compiled call of 0.6 of the budget each: got %v, want the step-budget error", err)
	}
}
