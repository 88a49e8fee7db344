package vm

import (
	"strings"
	"testing"

	"pea/internal/bc"
	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/obs"
	"pea/internal/rt"
)

// TestSummariesKeepCallArgsVirtual: on call-heavy programs whose callees
// are too big to inline and never observe their ref argument, a PEA VM
// keeps the caller's allocation virtual across the call — the only place
// it escapes — so it allocates less than the interpreter and returns the
// same result. (The summaries-off side of the same comparison, PEA with
// pea.Config.CalleeNoEscape nil, is TestAblation's no-summaries variant
// and the internal/pea summary tests.)
func TestSummariesKeepCallArgsVirtual(t *testing.T) {
	for _, name := range []string{"callBulkNoEscape", "callChainForwarding", "callGuardedPred"} {
		t.Run(name, func(t *testing.T) {
			p := corpusProg(t, name)
			args := p.ArgSets[len(p.ArgSets)-1]
			vRef, ref, err := runVM(t, p, Options{Interpret: true}, args, 60)
			if err != nil {
				t.Fatal(err)
			}
			metrics := obs.NewMetrics()
			sink := obs.NewSink()
			sink.SetMetrics(metrics)
			v, machine, err := runVM(t, p, Options{EA: EAPartial, Sink: sink}, args, 60)
			if err != nil {
				t.Fatal(err)
			}
			if !v.Equal(vRef) {
				t.Fatalf("result divergence: PEA %v, interpreter %v", v, vRef)
			}
			if kept := metrics.Counter(obs.KindSummaryKeptVirtual); kept == 0 {
				t.Fatal("no call argument was kept virtual")
			}
			if got, want := machine.Env.Stats.Allocations, ref.Env.Stats.Allocations; got >= want {
				t.Fatalf("%d allocations under PEA, %d interpreted: the kept argument was allocated anyway", got, want)
			}
			if s := machine.Summaries(); !strings.Contains(s.Table(), "P.") {
				t.Fatalf("summary table missing program methods:\n%s", s.Table())
			}
		})
	}
}

// summaryComputes returns a sink counting into *n the summary sets the
// analysis computed.
func summaryComputes(n *int) *obs.Sink {
	return obs.NewSink(obs.FuncBackend(func(e *obs.Event) {
		if e.Kind == obs.KindSummary && e.Reason == "computed" {
			*n++
		}
	}))
}

// TestSummariesComputedOnDemand: PEA asks for the program's escape summaries
// only at a call that receives a virtual object. Listing 1 inlines every call
// it compiles and recursion's compiled calls pass only ints, so neither
// computes the set; callheavy needs it, and of two VMs on one broker only
// the first computes it: the second installs the first one's code from the
// shared cache and compiles nothing.
func TestSummariesComputedOnDemand(t *testing.T) {
	t.Run("no-virtual-argument", func(t *testing.T) {
		rec := corpusProg(t, "recursion")
		for _, c := range []struct {
			prog *bc.Program
			run  func(t *testing.T, machine *VM)
		}{
			{loadExample(t, "../../examples/cachekey.mj"), func(t *testing.T, machine *VM) {
				if _, err := machine.Run(); err != nil {
					t.Fatal(err)
				}
			}},
			{rec.Prog, func(t *testing.T, machine *VM) { callInt(t, machine, rec.Entry, 10) }},
		} {
			b := sharedBroker(t)
			var computes int
			machine := New(c.prog, Options{EA: EAPartial, CompileThreshold: 5, JIT: b, Sink: summaryComputes(&computes)})
			for i := 0; i < 30; i++ {
				c.run(t, machine)
			}
			compiled := machine.Stats().CompiledMethods
			machine.Close()
			if compiled == 0 {
				t.Fatal("nothing compiled")
			}
			if computes != 0 {
				t.Fatalf("%d summary sets computed, want none", computes)
			}
		}
	})
	t.Run("callheavy", func(t *testing.T) {
		prog := loadExample(t, "../../benchmarks/programs/callheavy.mj")
		b := sharedBroker(t)
		var computes int
		var allocs [2]int64
		for i := range allocs {
			machine := New(prog, Options{EA: EAPartial, CompileThreshold: 2, JIT: b, Sink: summaryComputes(&computes)})
			for r := 0; r < 4; r++ {
				if _, err := machine.Run(); err != nil {
					t.Fatal(err)
				}
			}
			allocs[i] = machine.Env.Stats.Allocations
			machine.Close()
		}
		if computes != 1 {
			t.Fatalf("%d summary sets computed over two VMs on one broker, want 1", computes)
		}
		if allocs[1] > allocs[0] {
			t.Fatalf("the second VM allocated %d, more than the first's %d", allocs[1], allocs[0])
		}
	})
}

// TestSummaryStoreWarmRestart: a second VM process (fresh broker, fresh
// Store handle) over the same store directory replays the summary-informed
// artifacts and behaves identically without running the analysis: the store holds no summary set,
// and a run that compiles nothing never asks for one. Asked for it, the warm
// VM computes the set the cold one did.
func TestSummaryStoreWarmRestart(t *testing.T) {
	p := corpusProg(t, "callBulkNoEscape")
	dir := t.TempDir()
	args := p.ArgSets[len(p.ArgSets)-1]
	run := func(sink *obs.Sink) (rt.Value, *VM, *broker.Store) {
		t.Helper()
		store, err := broker.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		v, machine, err := runVM(t, p, withJIT(t, Options{EA: EAPartial, CheckLevel: check.Basic, Sink: sink},
			broker.Options{Store: store}), args, 60)
		if err != nil {
			t.Fatal(err)
		}
		return v, machine, store
	}

	// summaryReady counts the summary_ready events of one run into *n.
	summaryReady := func(n *int) *obs.Sink {
		return obs.NewSink(obs.FuncBackend(func(e *obs.Event) {
			if e.Kind == obs.KindSummary {
				*n++
			}
		}))
	}
	var coldEvents, warmEvents int
	v1, cold, _ := run(summaryReady(&coldEvents))
	if coldEvents != 1 {
		t.Fatalf("cold run: %d summary_ready events, want 1", coldEvents)
	}
	v2, warm, store2 := run(summaryReady(&warmEvents))
	if !v2.Equal(v1) {
		t.Fatalf("warm restart diverged: %v vs %v", v2, v1)
	}
	if st := store2.Stats(); st.Hits == 0 {
		t.Fatalf("warm VM reloaded no artifacts: %+v", st)
	}
	if warm.Env.Stats.Allocations != cold.Env.Stats.Allocations {
		t.Fatalf("warm restart changed allocation behavior: %d vs %d",
			warm.Env.Stats.Allocations, cold.Env.Stats.Allocations)
	}
	if bs := warm.Broker().Stats(); bs.Compiled != 0 || warmEvents != 0 {
		t.Fatalf("replay-only run: %d pipeline compiles and %d summary_ready events, want none", bs.Compiled, warmEvents)
	}
	s1, s2 := cold.Summaries(), warm.Summaries()
	if s1 == nil || s2 == nil || s1.Table() != s2.Table() {
		t.Fatal("the warm VM's lazily computed summary set differs from the cold one's")
	}
}
