package vm

import (
	"strings"
	"testing"

	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/obs"
	"pea/internal/rt"
)

// TestSummariesKeepCallArgsVirtual is the PR's acceptance check: on
// call-heavy programs whose callees are too big to inline and never
// observe their ref argument, the summaries-on VM must keep the caller's
// allocation virtual (fewer runtime allocations) while producing the same
// result as the summaries-off VM.
func TestSummariesKeepCallArgsVirtual(t *testing.T) {
	for _, name := range []string{"callBulkNoEscape", "callChainForwarding", "callGuardedPred"} {
		t.Run(name, func(t *testing.T) {
			p := corpusProg(t, name)
			args := p.ArgSets[len(p.ArgSets)-1]
			vOff, off, err := runVM(t, p, Options{EA: EAPartial}, args, 60)
			if err != nil {
				t.Fatal(err)
			}
			vOn, on, err := runVM(t, p, Options{EA: EAPartial, Summaries: true}, args, 60)
			if err != nil {
				t.Fatal(err)
			}
			if !vOn.Equal(vOff) {
				t.Fatalf("result divergence: summaries-on %v, summaries-off %v", vOn, vOff)
			}
			offAllocs := off.Env.Stats.Allocations
			onAllocs := on.Env.Stats.Allocations
			if onAllocs >= offAllocs {
				t.Fatalf("summaries kept nothing virtual: %d allocations with summaries, %d without",
					onAllocs, offAllocs)
			}
			s := on.Summaries()
			if s == nil {
				t.Fatal("summaries-on VM resolved no summary set")
			}
			if !strings.Contains(s.Table(), "P.") {
				t.Fatalf("summary table missing program methods:\n%s", s.Table())
			}
		})
	}
}

// TestSummariesOffVMHasNoSummarySet: the ablation control must not pay for
// or depend on the analysis.
func TestSummariesOffVMHasNoSummarySet(t *testing.T) {
	p := corpusProg(t, "callBulkNoEscape")
	_, machine, err := runVM(t, p, Options{EA: EAPartial}, p.ArgSets[0], 40)
	if err != nil {
		t.Fatal(err)
	}
	if machine.Summaries() != nil {
		t.Fatal("summaries-off VM has a summary set")
	}
}

// TestSummaryStoreWarmRestart: a second VM process (fresh broker, fresh
// Store handle) over the same store directory replays the summaries-informed
// artifacts — the cache key carries the Summaries bit — and behaves
// identically without running the analysis: the store holds no summary set,
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
		v, machine, err := runVM(t, p, withJIT(t, Options{EA: EAPartial, Summaries: true, CheckLevel: check.Basic, Sink: sink},
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
