package vm

import (
	"strings"
	"testing"

	"pea/internal/broker"
	"pea/internal/check"
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
// Store handle) over the same store directory must load the persisted
// summary set instead of re-running the analysis, and behave identically.
func TestSummaryStoreWarmRestart(t *testing.T) {
	p := corpusProg(t, "callBulkNoEscape")
	dir := t.TempDir()
	args := p.ArgSets[len(p.ArgSets)-1]

	store1, err := broker.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	v1, cold, err := runVM(t, p, withJIT(t, Options{EA: EAPartial, Summaries: true, CheckLevel: check.Basic},
		broker.Options{Store: store1}), args, 60)
	if err != nil {
		t.Fatal(err)
	}
	if st := store1.Stats(); st.SummaryWrites == 0 {
		t.Fatalf("cold VM persisted no summaries: %+v", st)
	}

	store2, err := broker.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	v2, warm, err := runVM(t, p, withJIT(t, Options{EA: EAPartial, Summaries: true, CheckLevel: check.Basic},
		broker.Options{Store: store2}), args, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !v2.Equal(v1) {
		t.Fatalf("warm restart diverged: %v vs %v", v2, v1)
	}
	// The summaries-informed artifacts themselves replay from the store
	// (the cache key carries the Summaries bit), so the warm VM may never
	// need to compile at all.
	if st := store2.Stats(); st.Hits == 0 {
		t.Fatalf("warm VM reloaded no artifacts: %+v", st)
	}
	if warm.Env.Stats.Allocations != cold.Env.Stats.Allocations {
		t.Fatalf("warm restart changed allocation behavior: %d vs %d",
			warm.Env.Stats.Allocations, cold.Env.Stats.Allocations)
	}
	// Forcing summary resolution on the warm VM must load the persisted
	// set, not re-run the analysis from scratch.
	s1, s2 := cold.Summaries(), warm.Summaries()
	if s1 == nil || s2 == nil || s1.Table() != s2.Table() {
		t.Fatal("persisted summary set differs from the computed one")
	}
	if st := store2.Stats(); st.SummaryHits == 0 {
		t.Fatalf("warm VM did not hit the summary store: %+v", st)
	}
}
