package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"pea/internal/bc"
)

// fixedClock returns a clock frozen at the unix epoch, so sequence numbers
// are the only thing distinguishing events.
func fixedClock() func() time.Time {
	t0 := time.Unix(0, 0)
	return func() time.Time { return t0 }
}

// method returns a bare method with the given dense ID and qualified name.
func method(id int, class, name string) *bc.Method {
	return &bc.Method{ID: id, Name: name, Class: &bc.Class{Name: class}}
}

// TestNilSinkNoAllocs enforces the package's core contract: with tracing
// disabled (a nil sink or a ring-only one, nil metrics) every helper is
// allocation-free — the trace-only ones return at once, the ring-kept ones
// write a record into a ring whose buffer exists. The compile hot path
// relies on this.
func TestNilSinkNoAllocs(t *testing.T) {
	mm := method(0, "M", "m")
	ring := NewRing()
	ring.VMOSREnter(mm, 3) // the first record allocates the ring's slots
	for _, s := range []*Sink{nil, ring} {
		var m *Metrics
		allocs := testing.AllocsPerRun(200, func() {
			s.PhaseStart("pea", "M.m", 10, 2)
			s.PhaseEnd("pea", "M.m", 10, 2, 8, 2, time.Millisecond)
			s.CheckViolation("pea", "M.m", "broken", "")
			s.SummaryReady(3, 1, 0, "computed")
			s.Inline("M.m", "M.callee", "v3")
			s.Virtualize(mm, 0, "Key", 1, nil, 0)
			s.LockElide(mm, 0, 5, "monitorenter", nil, 0)
			s.PEARound("M.m", 1)
			s.PEAFixpoint("M.m", 2)
			s.PEABailout("M.m", "no fixpoint")
			s.PEAState("M.m", "b1", "state")
			s.EAVerdict(mm, 1, "captured", "", nil, 0)
			s.VMCompile("M.m", 20, TriggerThreshold)
			s.VMInvalidate("M.m", "deopt")
			s.VMRecompile("M.m", 1)
			s.BrokerDedup(mm)
			s.BrokerReject(mm, "queue-full")
			s.VMRearm("M.m", "transient", 1, 40)
			s.VMCrashRepro("M.m", "crash-M_m.json")
			s.Snapshot("pea", "M.m", nil)
			if s.WantSnapshots() {
				t.Fatal("a sink that does not trace wants snapshots")
			}
			span := StartPhase(s, "pea", "M.m", 10, 2)
			span.End(8, 2)

			s.BrokerSubmit(mm, 20, 1)
			s.CompileStart(mm, 20)
			s.BrokerInstall(mm, "cache", time.Microsecond)
			s.CompileFail(mm, "error", time.Microsecond)
			s.BrokerPanic(mm, "boom")
			s.VMOSRRequest(mm, 3, 1000)
			s.VMOSREnter(mm, 3)
			s.VMDeopt(mm, 7, "branch-mispredict")
			s.VMRematerialize(mm, 0, mm, 0, "")
			s.Materialize(mm, 0, mm, 0, 9, 2, "StoreStatic")
			s.Materialize(mm, 0, nil, 0, -1, 4, "merge-mixed")
			s.SummaryKeptVirtual(mm, 0, mm, 0, 5, 1, "M.callee")

			_ = m.Counter(KindVirtualize)
			_ = m.Phase("pea")
		})
		if allocs != 0 {
			t.Fatalf("disabled observability (sink %p) allocated %.1f times per run, want 0", s, allocs)
		}
	}
}

// TestJSONBackendJSONL checks the JSONL backend: one valid JSON object per
// line, monotonically increasing sequence numbers, deterministic
// timestamps under a test clock, and stable kind strings.
func TestJSONBackendJSONL(t *testing.T) {
	var buf bytes.Buffer
	s := NewSink(NewJSONBackend(&buf))
	s.SetClock(fixedClock())

	getValue := method(1, "Main", "getValue")
	s.PhaseStart("pea", "Main.getValue", 40, 8)
	s.Virtualize(getValue, 0, "Key", 1, nil, 0)
	s.LockElide(getValue, 0, 5, "monitorenter", nil, 0)
	s.Materialize(getValue, 0, getValue, 0, 10, 2, "StoreStatic")
	s.PhaseEnd("pea", "Main.getValue", 40, 8, 36, 8, 0)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("got %d lines, want 5:\n%s", len(lines), buf.String())
	}
	wantKinds := []Kind{KindPhaseStart, KindVirtualize, KindLockElide, KindMaterialize, KindPhaseEnd}
	for i, ln := range lines {
		var e Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, ln)
		}
		if e.Seq != int64(i+1) {
			t.Errorf("line %d: seq = %d, want %d", i+1, e.Seq, i+1)
		}
		if e.TNS != 0 {
			t.Errorf("line %d: t_ns = %d, want 0 under fixed clock", i+1, e.TNS)
		}
		if e.Kind != wantKinds[i] {
			t.Errorf("line %d: kind = %q, want %q", i+1, e.Kind, wantKinds[i])
		}
	}
}

// TestSinkMetricsAgreement checks that the registry is a fold of the
// stream: after one call of every helper (and a few repeats), each kind's
// counter equals the number of JSONL lines of that kind, a merge
// materialization counts as its own kind, and a kind never seen reads 0.
func TestSinkMetricsAgreement(t *testing.T) {
	var buf bytes.Buffer
	m := NewMetrics()
	s := NewSink(NewJSONBackend(&buf))
	s.SetMetrics(m)
	s.SetMetrics(nil) // attaches nothing

	mm := method(0, "M", "m")
	s.PhaseStart("pea", "M.m", 10, 2)
	s.PhaseEnd("pea", "M.m", 10, 2, 8, 2, time.Millisecond)
	s.CheckViolation("pea", "M.m", "broken", "")
	s.SummaryReady(3, 1, 0, "computed")
	s.Inline("M.m", "M.c", "v1")
	s.Virtualize(mm, 0, "Key", 1, nil, 0)
	s.Materialize(mm, 0, mm, 0, 9, 2, "StoreStatic")
	s.Materialize(mm, 1, mm, 4, 11, 3, "Invoke")
	s.Materialize(mm, 0, mm, 0, -1, 4, "merge-mixed")
	s.LockElide(mm, 0, 5, "monitorenter", nil, 0)
	s.LockElide(mm, 0, 6, "monitorexit", nil, 0)
	s.PEARound("M.m", 1)
	s.PEAFixpoint("M.m", 1)
	s.PEABailout("M.m", "no fixpoint")
	s.PEAState("M.m", "b1", "state")
	s.EAVerdict(mm, 1, "captured", "", nil, 0)
	s.EAVerdict(mm, 2, "escapes", "returned", nil, 4)
	s.VMCompile("M.m", 20, TriggerThreshold)
	s.VMInvalidate("M.m", "deopt")
	s.VMRecompile("M.m", 1)
	s.BrokerDedup(mm)
	s.BrokerReject(mm, "queue-full")
	s.VMRearm("M.m", "transient", 1, 40)
	s.VMCrashRepro("M.m", "crash-M_m.json")
	s.BrokerSubmit(mm, 20, 1)
	s.CompileStart(mm, 20)
	s.BrokerInstall(mm, "compiled", time.Microsecond)
	s.BrokerInstall(mm, "cache", time.Microsecond)
	s.CompileFail(mm, "error", time.Microsecond)
	s.BrokerPanic(mm, "boom")
	s.VMOSRRequest(mm, 3, 1000)
	s.VMOSREnter(mm, 3)
	s.VMDeopt(mm, 7, "speculation-failed")
	s.VMRematerialize(mm, 0, mm, 0, "Key")
	s.SummaryKeptVirtual(mm, 0, mm, 0, 5, 1, "M.callee")

	lines := map[Kind]int64{}
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var e Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("bad line %q: %v", ln, err)
		}
		lines[e.Kind]++
	}
	for k := Kind(1); int(k) < len(kindNames); k++ {
		if got := m.Counter(k); got != lines[k] {
			t.Errorf("Counter(%s) = %d, want %d (JSONL lines)", k, got, lines[k])
		}
	}
	if m.Counter(KindMaterialize) != 2 || m.Counter(KindMergeMaterialize) != 1 {
		t.Errorf("materialize %d, merge_materialize %d, want 2 and 1",
			m.Counter(KindMaterialize), m.Counter(KindMergeMaterialize))
	}
	if m.Counter(KindIRSnapshot) != 0 {
		t.Errorf("Counter(ir_snapshot) = %d for a kind never emitted", m.Counter(KindIRSnapshot))
	}
	snap := m.Snapshot()
	if snap.Counters["broker_install"] != 2 {
		t.Errorf("snapshot counters = %v, want broker_install 2 under its kind name", snap.Counters)
	}
	if _, ok := snap.Counters["ir_snapshot"]; ok {
		t.Errorf("snapshot lists the unseen kind ir_snapshot: %v", snap.Counters)
	}
}

// TestPhaseTimers checks the per-phase timers folded from phase_end events
// and the table rendering.
func TestPhaseTimers(t *testing.T) {
	m := NewMetrics()
	s := NewSink()
	s.SetMetrics(m)

	s.PhaseEnd("gvn", "M.m", 40, 8, 36, 8, 2*time.Millisecond)
	s.PhaseEnd("gvn", "M.n", 10, 2, 10, 2, time.Millisecond)

	st := m.Phase("gvn")
	if st.Count != 2 {
		t.Errorf("gvn count = %d, want 2", st.Count)
	}
	if st.Total != 3*time.Millisecond {
		t.Errorf("gvn total = %v, want 3ms", st.Total)
	}
	if st.NodeDelta != -4 {
		t.Errorf("gvn node delta = %d, want -4", st.NodeDelta)
	}
	table := m.Snapshot().Table()
	if !strings.Contains(table, "gvn") {
		t.Errorf("table does not mention the gvn phase:\n%s", table)
	}
}

// TestSnapshotLazyRender checks that the IR renderer only runs when a
// consumer is registered.
func TestSnapshotLazyRender(t *testing.T) {
	s := NewSink()
	rendered := 0
	render := func() string { rendered++; return "IR" }

	s.Snapshot("pea", "M.m", render)
	if rendered != 0 {
		t.Fatalf("render ran with no consumer registered")
	}
	if s.WantSnapshots() {
		t.Fatalf("WantSnapshots true with no consumer")
	}

	var got []string
	s.OnSnapshot(func(phase, method string, render func() string) {
		got = append(got, phase+"/"+method+"/"+render())
	})
	if !s.WantSnapshots() {
		t.Fatalf("WantSnapshots false with a consumer registered")
	}
	s.Snapshot("pea", "M.m", render)
	if rendered != 1 || len(got) != 1 || got[0] != "pea/M.m/IR" {
		t.Fatalf("snapshot delivery wrong: rendered=%d got=%v", rendered, got)
	}
}
