package vm

import (
	"testing"

	"pea/internal/bc"
	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/mj"
	"pea/internal/rt"
)

// hotLoopSrc is a single-invocation hot loop: main calls sum once, and sum
// iterates far past any OSR threshold inside that one call. Each iteration
// allocates a Box that escapes through the static cell and is locked after
// publication, so allocation and monitor counts are identical across
// execution modes (PEA cannot elide an unconditionally escaping object or
// its post-publication locks). The printed checkpoints pin Env.Output.
const hotLoopSrc = `
class Box {
	int v;
	Box(int v) { this.v = v; }
}
class Cell {
	static Box last;
}
class Main {
	static int sum(int n) {
		int acc = 0;
		int i = 0;
		while (i < n) {
			Box b = new Box(i);
			Cell.last = b;
			synchronized (b) {
				acc = acc + b.v;
			}
			if (i % 1000 == 0) { print(acc); }
			i = i + 1;
		}
		return acc;
	}
	static void main() { print(sum(4000)); }
}
`

// scalarLoopSrc is a hot loop whose per-iteration allocation never escapes:
// below the OSR entry, PEA must still scalar-replace it.
const scalarLoopSrc = `
class Pair {
	int a;
	int b;
	Pair(int a, int b) { this.a = a; this.b = b; }
	int sum() { return a + b; }
}
class Main {
	static int run(int n) {
		int acc = 0;
		int i = 0;
		while (i < n) {
			Pair p = new Pair(i, acc);
			acc = p.sum();
			i = i + 1;
		}
		return acc;
	}
	static void main() { print(run(3000)); }
}
`

type runResult struct {
	output  []int64
	stats   rt.Stats
	vmStats Stats
}

func runMode(t *testing.T, src string, opts Options) runResult {
	t.Helper()
	prog, err := mj.Compile(src, "Main.main")
	if err != nil {
		t.Fatal(err)
	}
	machine := New(prog, opts)
	defer machine.Close()
	if _, err := machine.Run(); err != nil {
		t.Fatal(err)
	}
	machine.DrainJIT()
	for m, cerr := range machine.FailedCompilations() {
		t.Fatalf("compile of %s failed: %v", m.QualifiedName(), cerr)
	}
	return runResult{
		output:  append([]int64(nil), machine.Env.Output...),
		stats:   machine.Env.Stats,
		vmStats: machine.Stats(),
	}
}

func sameOutput(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOSREntersHotLoop is the tentpole end-to-end check: a single
// invocation containing a hot loop tiers up mid-invocation through OSR.
func TestOSREntersHotLoop(t *testing.T) {
	res := runMode(t, hotLoopSrc, Options{
		EA:               EAPartial,
		CompileThreshold: 1 << 30, // never tier up at call boundaries
		OSRThreshold:     200,
		CheckLevel:       check.Basic,
	})
	if res.vmStats.OSRRequests < 1 {
		t.Fatalf("OSR requests = %d, want >= 1", res.vmStats.OSRRequests)
	}
	if res.vmStats.OSRCompilations < 1 {
		t.Fatalf("OSR compilations = %d, want >= 1", res.vmStats.OSRCompilations)
	}
	if res.vmStats.OSREntries < 1 {
		t.Fatalf("OSR entries = %d, want >= 1", res.vmStats.OSREntries)
	}
	if res.vmStats.CompiledMethods != 0 {
		t.Fatalf("standard compiles = %d, want 0 (threshold unreachable)", res.vmStats.CompiledMethods)
	}
	want := runMode(t, hotLoopSrc, Options{Interpret: true})
	if !sameOutput(res.output, want.output) {
		t.Fatalf("OSR output diverged:\n osr    = %v\n interp = %v", res.output, want.output)
	}
}

// TestOSRDifferentialAgreement is the golden differential: interpreter-only,
// standard tier-up, synchronous OSR, asynchronous OSR, and a second VM that
// takes the first one's OSR code out of a shared broker at the loop's first
// back edge must produce identical results, output streams, and
// allocation/monitor counts.
func TestOSRDifferentialAgreement(t *testing.T) {
	for _, src := range []string{hotLoopSrc, scalarLoopSrc} {
		base := runMode(t, src, Options{Interpret: true})
		modes := []struct {
			name    string
			opts    Options
			workers int // > 0: compile on that many background workers
			warm    bool
		}{
			{name: "tierup", opts: Options{EA: EAPartial, CompileThreshold: 2, CheckLevel: check.Basic}},
			{name: "osr-sync", opts: Options{EA: EAPartial, CompileThreshold: 1 << 30, OSRThreshold: 100, CheckLevel: check.Basic}},
			{name: "osr-async", opts: Options{EA: EAPartial, CompileThreshold: 1 << 30, OSRThreshold: 100, CheckLevel: check.Basic}, workers: 2},
			{name: "osr-spec", opts: Options{EA: EAPartial, CompileThreshold: 1 << 30, OSRThreshold: 100, Speculate: true, CheckLevel: check.Basic}},
			{name: "osr-warm", opts: Options{EA: EAPartial, CompileThreshold: 1 << 30, OSRThreshold: 100, CheckLevel: check.Basic}, warm: true},
		}
		for _, mode := range modes {
			if mode.workers > 0 {
				mode.opts = withJIT(t, mode.opts, broker.Options{Workers: mode.workers})
			}
			if mode.warm {
				// A fresh link per VM, as runMode makes: the second VM must
				// also rebind what it takes.
				mode.opts.JIT = sharedBroker(t)
				runMode(t, src, mode.opts)
			}
			got := runMode(t, src, mode.opts)
			if mode.warm && (got.vmStats.WarmInstalls == 0 || got.vmStats.OSRRequests != 0) {
				t.Errorf("%s: second VM did not enter at the first back edge: %+v", mode.name, got.vmStats)
			}
			if !sameOutput(got.output, base.output) {
				t.Errorf("%s: output diverged from interpreter", mode.name)
				continue
			}
			if src == hotLoopSrc {
				// Every allocation escapes and every lock follows
				// publication, so the runtime counts must agree
				// exactly with the interpreter.
				if got.stats.Allocations != base.stats.Allocations {
					t.Errorf("%s: allocations = %d, want %d",
						mode.name, got.stats.Allocations, base.stats.Allocations)
				}
				if got.stats.MonitorOps != base.stats.MonitorOps {
					t.Errorf("%s: monitor ops = %d, want %d",
						mode.name, got.stats.MonitorOps, base.stats.MonitorOps)
				}
			}
		}
	}
}

// TestOSRScalarReplacesLoopAllocation checks the PEA interaction: objects
// allocated below the OSR entry are still scalar-replaced, so the OSR run
// of scalarLoopSrc performs (far) fewer allocations than the interpreter.
func TestOSRScalarReplacesLoopAllocation(t *testing.T) {
	base := runMode(t, scalarLoopSrc, Options{Interpret: true})
	osr := runMode(t, scalarLoopSrc, Options{
		EA:               EAPartial,
		CompileThreshold: 1 << 30,
		OSRThreshold:     100,
		CheckLevel:       check.Basic,
	})
	if osr.vmStats.OSREntries < 1 {
		t.Fatalf("OSR entries = %d, want >= 1", osr.vmStats.OSREntries)
	}
	if !sameOutput(osr.output, base.output) {
		t.Fatalf("output diverged:\n osr    = %v\n interp = %v", osr.output, base.output)
	}
	// The interpreter allocates one Pair per iteration; the compiled OSR
	// body allocates none. Only the interpreted warmup iterations remain.
	if osr.stats.Allocations >= base.stats.Allocations/2 {
		t.Fatalf("allocations = %d (interpreter %d): loop allocation not scalar-replaced below OSR entry",
			osr.stats.Allocations, base.stats.Allocations)
	}
}

// TestOSRGraphTreatsEntryRefsAsEscaped checks that a reference flowing into
// the compiled code through the OSR entry (it existed before the transfer)
// is never virtualized: field stores to it must remain real stores.
func TestOSRGraphTreatsEntryRefsAsEscaped(t *testing.T) {
	const src = `
class Acc {
	int total;
}
class Main {
	static int run(int n) {
		Acc a = new Acc();
		int i = 0;
		while (i < n) {
			a.total = a.total + i;
			i = i + 1;
		}
		return a.total;
	}
	static void main() { print(run(3000)); }
}
`
	base := runMode(t, src, Options{Interpret: true})
	osr := runMode(t, src, Options{
		EA:               EAPartial,
		CompileThreshold: 1 << 30,
		OSRThreshold:     100,
		CheckLevel:       check.Basic,
	})
	if osr.vmStats.OSREntries < 1 {
		t.Fatalf("OSR entries = %d, want >= 1", osr.vmStats.OSREntries)
	}
	if !sameOutput(osr.output, base.output) {
		t.Fatalf("output diverged:\n osr    = %v\n interp = %v", osr.output, base.output)
	}
}

// TestOSRWithOperandStackAtHeader exercises frame transfer with a non-empty
// expression stack at the loop header (a value computed before the loop and
// consumed after it, kept on the stack across every back edge).
func TestOSRWithOperandStackAtHeader(t *testing.T) {
	// Hand-assemble: push 7, loop summing i in local 1, then add the
	// stashed 7 after the loop. The 7 rides the operand stack across the
	// back edge, so the OSR entry must materialize a stack param.
	a := bc.NewAssembler()
	c := a.Class("C", "")
	m := c.Method("stacky", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	iLoc := m.NewLocal(bc.KindInt)
	accLoc := m.NewLocal(bc.KindInt)
	m.Const(7). // stays on the stack for the whole loop
			Const(0).Store(iLoc).
			Const(0).Store(accLoc).
			Label("head").
			Load(iLoc).Load(0).IfCmp(bc.CondGE, "done").
			Load(accLoc).Load(iLoc).Add().Store(accLoc).
			Load(iLoc).Const(1).Add().Store(iLoc).
			Goto("head").
			Label("done").
			Load(accLoc).Add(). // 7 + acc
			ReturnValue()
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	meth := prog.ClassByName("C").MethodByName("stacky")

	run := func(opts Options) (rt.Value, Stats) {
		machine := New(prog, opts)
		defer machine.Close()
		v, err := machine.Call(meth, []rt.Value{rt.IntValue(2000)})
		if err != nil {
			t.Fatal(err)
		}
		for m, cerr := range machine.FailedCompilations() {
			t.Fatalf("compile of %s failed: %v", m.QualifiedName(), cerr)
		}
		return v, machine.Stats()
	}

	want, _ := run(Options{Interpret: true})
	got, st := run(Options{EA: EAPartial, CompileThreshold: 1 << 30, OSRThreshold: 100, CheckLevel: check.Basic})
	if st.OSREntries < 1 {
		t.Fatalf("OSR entries = %d, want >= 1", st.OSREntries)
	}
	if got.I != want.I {
		t.Fatalf("OSR result = %d, want %d", got.I, want.I)
	}
	if want.I != 7+1999*2000/2 {
		t.Fatalf("interpreter result = %d, want %d", want.I, 7+1999*2000/2)
	}
}

// TestOSRDisabledByDefault pins the compatibility contract: without an
// explicit threshold no OSR machinery runs, keeping pre-OSR behavior (and
// cache-key fingerprints) bit-identical.
func TestOSRDisabledByDefault(t *testing.T) {
	res := runMode(t, hotLoopSrc, Options{EA: EAPartial, CompileThreshold: 1 << 30, CheckLevel: check.Basic})
	if res.vmStats.OSRRequests != 0 || res.vmStats.OSREntries != 0 || res.vmStats.OSRCompilations != 0 {
		t.Fatalf("OSR activity without a threshold: %+v", res.vmStats)
	}
}
