package vm

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/mj"
	"pea/internal/obs"
	"pea/internal/rt"
	"pea/internal/testprog"
)

var update = flag.Bool("update", false, "rewrite golden files")

// listing1 is the paper's Listing 1: getValue allocates a Key, compares it
// against the cached key under the key's monitor (the synchronized
// equalsKey of Listing 2), and publishes it only on the cache-miss branch.
const listing1 = `
class Key {
	int idx;
	Key(int idx) { this.idx = idx; }
	boolean equalsKey(Key other) {
		synchronized (this) {
			return other != null && idx == other.idx;
		}
	}
}
class Cache {
	static Key cacheKey;
	static int cacheValue;
}
class Main {
	static int createValue(int idx) { return idx * 31; }
	static int getValue(int idx) {
		Key key = new Key(idx);
		if (key.equalsKey(Cache.cacheKey)) {
			return Cache.cacheValue;
		} else {
			Cache.cacheKey = key;
			Cache.cacheValue = createValue(idx);
			return Cache.cacheValue;
		}
	}
	static void main() { print(getValue(1)); }
}
`

// TestTraceEventsCachekey drives the VM over the paper's Listing 1 with
// the JSONL event backend attached and checks the whole stream: every
// line is valid JSON, sequence numbers are dense, timestamps are pinned
// by the test clock, phase spans balance, and the PEA decision log shows
// exactly what the paper promises for getValue — the Key allocation
// virtualized, both monitor operations of the inlined synchronized block
// elided, and one materialization on the cache-miss branch (at the
// StoreStatic that publishes the key). The decision subsequence is also
// golden-matched (go test ./internal/vm -run TraceEvents -update
// regenerates it).
func TestTraceEventsCachekey(t *testing.T) {
	prog, err := mj.Compile(listing1, "Main.main")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewSink(obs.NewJSONBackend(&buf))
	sink.SetClock(func() time.Time { return time.Unix(0, 0) })
	machine := New(prog, Options{
		EA:               EAPartial,
		CompileThreshold: 3,
		Sink:             sink,
		CheckLevel:       check.Basic,
		MaxSteps:         1_000_000,
	})
	getValue := prog.ClassByName("Main").MethodByName("getValue")
	for i := 0; i < 6; i++ {
		if _, err := machine.Call(getValue, []rt.Value{rt.IntValue(1)}); err != nil {
			t.Fatal(err)
		}
	}
	for m, cerr := range machine.FailedCompilations() {
		t.Fatalf("compilation of %s failed: %v", m.QualifiedName(), cerr)
	}

	// The stream is valid JSONL: one object per line, dense sequence
	// numbers, zero timestamps under the fixed clock.
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var events []obs.Event
	for i, ln := range lines {
		var e obs.Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, ln)
		}
		if e.Seq != int64(i+1) {
			t.Errorf("line %d: seq = %d, want %d", i+1, e.Seq, i+1)
		}
		if e.TNS != 0 {
			t.Errorf("line %d: t_ns = %d, want 0 under the fixed clock", i+1, e.TNS)
		}
		if e.Kind == 0 {
			t.Errorf("line %d: missing kind", i+1)
		}
		events = append(events, e)
	}

	// Phase spans balance: every phase_start has its phase_end.
	starts, ends := map[string]int{}, map[string]int{}
	for _, e := range events {
		switch e.Kind {
		case obs.KindPhaseStart:
			starts[e.Phase]++
		case obs.KindPhaseEnd:
			ends[e.Phase]++
		}
	}
	for ph, n := range starts {
		if ends[ph] != n {
			t.Errorf("phase %q: %d starts but %d ends", ph, n, ends[ph])
		}
	}
	if starts["build"] == 0 || starts["pea"] == 0 {
		t.Errorf("missing build/pea phase spans; phases seen: %v", starts)
	}

	// The Listing 1 decision log for the compiled getValue.
	var virtualize, lockElide, materialize []obs.Event
	for _, e := range events {
		if e.Method != "Main.getValue" {
			continue
		}
		switch e.Kind {
		case obs.KindVirtualize:
			virtualize = append(virtualize, e)
		case obs.KindLockElide:
			lockElide = append(lockElide, e)
		case obs.KindMaterialize, obs.KindMergeMaterialize:
			materialize = append(materialize, e)
		}
	}
	if len(virtualize) != 1 || virtualize[0].Detail != "Key" {
		t.Errorf("virtualize events = %+v, want exactly one for class Key", virtualize)
	}
	if len(lockElide) != 2 {
		t.Errorf("lock_elide events = %+v, want exactly 2 (monitorenter+monitorexit)", lockElide)
	} else {
		ops := []string{lockElide[0].Detail, lockElide[1].Detail}
		if ops[0] != "monitorenter" || ops[1] != "monitorexit" {
			t.Errorf("lock_elide ops = %v, want [monitorenter monitorexit]", ops)
		}
	}
	if len(materialize) != 1 {
		t.Errorf("materialize events = %+v, want exactly one (cache-miss branch)", materialize)
	} else if m := materialize[0]; m.Reason != "StoreStatic" {
		t.Errorf("materialize reason = %q, want StoreStatic (publication on the miss branch)", m.Reason)
	}

	// Tier-up events cover the three hot methods.
	compiled := map[string]bool{}
	for _, e := range events {
		if e.Kind == obs.KindVMCompile {
			compiled[e.Method] = true
		}
	}
	if !compiled["Main.getValue"] {
		t.Errorf("no vm_compile event for Main.getValue; compiled: %v", compiled)
	}

	// Golden-match the full decision subsequence (all methods), with
	// sequence numbers normalized out so unrelated event insertions
	// upstream do not churn the file.
	var decisions []string
	for _, e := range events {
		switch e.Kind {
		case obs.KindVirtualize, obs.KindMaterialize, obs.KindMergeMaterialize,
			obs.KindLockElide, obs.KindPEAFixpoint:
			e.Seq, e.TNS = 0, 0
			b, err := json.Marshal(e)
			if err != nil {
				t.Fatal(err)
			}
			decisions = append(decisions, string(b))
		}
	}
	got := strings.Join(decisions, "\n") + "\n"
	golden := filepath.Join("testdata", "cachekey_events.golden")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("decision event stream diverged from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestEscapeTableListing1 runs the paper's Listing 1 with the escape
// attribution aggregator attached and golden-matches the rendered table —
// the per-site Table 1 analogue that peavm -escape-report prints. The
// single Key allocation site (Main.getValue@0) must show one virtualized
// object, one materialization on the cache-miss branch dominated by the
// StoreStatic publication, and both elided monitor operations. The sink's
// ring must have kept the same materializations.
func TestEscapeTableListing1(t *testing.T) {
	prog, err := mj.Compile(listing1, "Main.main")
	if err != nil {
		t.Fatal(err)
	}
	esc := obs.NewEscapeTable()
	sink := obs.NewSink(esc)
	machine := New(prog, Options{
		EA:               EAPartial,
		CompileThreshold: 3,
		Sink:             sink,
		CheckLevel:       check.Basic,
		MaxSteps:         1_000_000,
	})
	getValue := prog.ClassByName("Main").MethodByName("getValue")
	for i := 0; i < 6; i++ {
		if _, err := machine.Call(getValue, []rt.Value{rt.IntValue(1)}); err != nil {
			t.Fatal(err)
		}
	}
	for m, cerr := range machine.FailedCompilations() {
		t.Fatalf("compilation of %s failed: %v", m.QualifiedName(), cerr)
	}

	// The ring keeps every compile-time materialization the table counted,
	// and the installs.
	var mat int64
	for _, s := range esc.Snapshot() {
		mat += s.Materialized
	}
	var ringMats, ringInstalls int64
	for _, e := range decodeEvents(t, "ring", ringDump(t, machine)) {
		switch e.Kind {
		case obs.KindMaterialize, obs.KindMergeMaterialize:
			ringMats++
		case obs.KindBrokerInstall:
			ringInstalls++
		}
	}
	if ringMats != mat {
		t.Errorf("ring materialize records = %d, table total %d", ringMats, mat)
	}
	if ringInstalls == 0 {
		t.Error("the ring captured no broker_install records")
	}

	// Golden-match the rendered table.
	got := esc.Table()
	golden := filepath.Join("testdata", "cachekey_escape.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("escape table diverged from golden file:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestMetricsFoldTheStream checks that the metrics registry is a fold of the
// event stream and nothing else. Each example runs traced — JSONL, escape
// table and registry on one sink — with background compilation, OSR and (for
// specdeopt) speculation, and then every kind's counter must equal the
// number of JSONL lines of that kind, each phase timer's run count the
// number of that phase's phase_end lines, and each escape-table total the
// registry's count of the kinds it sums.
func TestMetricsFoldTheStream(t *testing.T) {
	seen := map[obs.Kind]int64{}
	for _, ex := range []struct {
		file      string
		speculate bool
	}{{"cachekey.mj", false}, {"specdeopt.mj", true}} {
		t.Run(ex.file, func(t *testing.T) {
			prog := loadExample(t, filepath.Join("..", "..", "examples", ex.file))
			var buf bytes.Buffer
			esc, met := obs.NewEscapeTable(), obs.NewMetrics()
			sink := obs.NewSink(obs.NewJSONBackend(&buf), esc)
			sink.SetMetrics(met)
			machine := New(prog, withJIT(t, Options{
				EA: EAPartial, Speculate: ex.speculate, CompileThreshold: 5, OSRThreshold: 20,
				CheckLevel: check.Basic, MaxSteps: 50_000_000, Sink: sink,
			}, broker.Options{Workers: 2}))
			for i := 0; i < 30; i++ {
				if _, err := machine.Run(); err != nil {
					t.Fatal(err)
				}
			}
			machine.DrainJIT()

			lines := map[obs.Kind]int64{}
			phaseEnds := map[string]int64{}
			for _, e := range decodeEvents(t, "trace", buf.Bytes()) {
				lines[e.Kind]++
				seen[e.Kind]++
				if e.Kind == obs.KindPhaseEnd {
					phaseEnds[e.Phase]++
				}
			}
			// Equal counts for every kind in the stream, and no other kind
			// counted.
			snap := met.Snapshot()
			if len(snap.Counters) != len(lines) {
				t.Errorf("registry counts %d kinds, the stream has %d: %v", len(snap.Counters), len(lines), snap.Counters)
			}
			for k, n := range lines {
				if got := met.Counter(k); got != n {
					t.Errorf("Counter(%s) = %d, want %d JSONL lines", k, got, n)
				}
			}
			if len(snap.Phases) != len(phaseEnds) {
				t.Errorf("registry times %d phases, the stream ends %d: %v", len(snap.Phases), len(phaseEnds), snap.Phases)
			}
			for ph, n := range phaseEnds {
				if got := met.Phase(ph).Count; got != n {
					t.Errorf("phase %s: timer counts %d runs, want %d phase_end lines", ph, got, n)
				}
			}

			var virt, mat, remat, locks int64
			for _, s := range esc.Snapshot() {
				virt += s.Virtualized
				mat += s.Materialized
				remat += s.Remats
				locks += s.LocksElided
			}
			for _, c := range []struct {
				column      string
				total, want int64
			}{
				{"VIRT", virt, met.Counter(obs.KindVirtualize)},
				{"MAT", mat, met.Counter(obs.KindMaterialize) + met.Counter(obs.KindMergeMaterialize)},
				{"REMAT", remat, met.Counter(obs.KindVMRematerialize)},
				{"LOCKS", locks, met.Counter(obs.KindLockElide)},
			} {
				if c.total != c.want {
					t.Errorf("escape table %s total %d, registry %d", c.column, c.total, c.want)
				}
			}
		})
	}
	// The two runs between them exercise the compiler, the broker and OSR,
	// so the fold is checked on every layer's kinds. (Whether specdeopt
	// deoptimizes depends on when the background compile installs.)
	for _, k := range []obs.Kind{obs.KindPhaseEnd, obs.KindInline, obs.KindVirtualize,
		obs.KindBrokerSubmit, obs.KindBrokerInstall, obs.KindVMOSREnter} {
		if seen[k] == 0 {
			t.Errorf("no %s event in either run", k)
		}
	}
}

// benchmarkCompile measures one full JIT compilation of the paper's
// cacheKey workload under PEA. The nil-sink variant is the guard for the
// package's no-overhead-when-disabled contract: its allocation count must
// not exceed the seed compiler's (observability disabled adds zero
// allocations; compare with BenchmarkCompileEventSink for the enabled
// cost).
func benchmarkCompile(b *testing.B, sink *obs.Sink) {
	var p testprog.Program
	for _, c := range testprog.Corpus() {
		if c.Name == "cacheKey" {
			p = c
		}
	}
	if p.Prog == nil {
		b.Fatal("cacheKey workload not in corpus")
	}
	machine := New(p.Prog, Options{EA: EAPartial, Sink: sink})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := machine.Compile(p.Entry); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompileNilSink(b *testing.B) { benchmarkCompile(b, nil) }

func BenchmarkCompileEventSink(b *testing.B) {
	benchmarkCompile(b, obs.NewSink(obs.NewJSONBackend(discard{})))
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
