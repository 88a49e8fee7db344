package vm

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/mj"
	"pea/internal/obs"
	"pea/internal/rt"
	"pea/internal/stat"
	"pea/internal/testprog"
)

// ringKinds are the event kinds the ring keeps.
var ringKinds = map[obs.Kind]bool{
	obs.KindBrokerSubmit: true, obs.KindCompileStart: true, obs.KindBrokerInstall: true,
	obs.KindCompileFail: true, obs.KindBrokerPanic: true, obs.KindVMOSRRequest: true,
	obs.KindVMOSREnter: true, obs.KindVMDeopt: true, obs.KindVMRematerialize: true,
	obs.KindMaterialize: true, obs.KindMergeMaterialize: true, obs.KindSummaryKeptVirtual: true,
}

// decodeEvents parses JSONL into events; every line must be one.
func decodeEvents(t *testing.T, what string, data []byte) []obs.Event {
	t.Helper()
	var out []obs.Event
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("%s line is not an obs.Event: %v\n%s", what, err, sc.Text())
		}
		out = append(out, e)
	}
	return out
}

// ringDump returns the JSONL dump of the VM's ring.
func ringDump(t *testing.T, machine *VM) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := machine.Opts.Sink.WriteRing(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFlightDumpOnPanic: a contained compiler panic with CrashDir set must
// leave a ring dump next to the crash reproducer — the black box that says
// what the JIT was doing leading up to the crash — and the dump must replay
// cleanly through the offline analyzer.
func TestFlightDumpOnPanic(t *testing.T) {
	dir := t.TempDir()
	prog, m := buildCounter(t)
	machine := New(prog, withJIT(t, Options{
		EA: EAPartial, CompileThreshold: 2, Seed: 7, CrashDir: dir,
	}, broker.Options{InjectFault: panicAt("opt", "C.m")}))
	for i := 0; i < 5; i++ {
		if _, err := machine.Call(m, []rt.Value{rt.IntValue(1)}); err != nil {
			t.Fatal(err)
		}
	}
	if machine.Stats().CrashRepros != 1 {
		t.Fatalf("crash repros = %d, want 1", machine.Stats().CrashRepros)
	}
	if _, err := os.Stat(filepath.Join(dir, "crash-C_m.json")); err != nil {
		t.Fatalf("crash repro not written: %v", err)
	}

	dump := filepath.Join(dir, "flight-C_m.jsonl")
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatalf("ring dump not written next to the crash repro: %v", err)
	}
	if !strings.Contains(string(data), `"kind":"broker_panic"`) {
		t.Errorf("ring dump has no panic record:\n%s", data)
	}
	if !strings.Contains(string(data), `"kind":"compile_start"`) {
		t.Errorf("ring dump has no compile_start record:\n%s", data)
	}

	rep, err := stat.Analyze(strings.NewReader(string(data)))
	if err != nil {
		t.Fatalf("peastat cannot analyze the dump: %v", err)
	}
	if len(rep.Events) == 0 || rep.Duplicates != 0 {
		t.Errorf("analyzer saw %d events (%d read twice), want >0 (0)", len(rep.Events), rep.Duplicates)
	}
	for _, e := range rep.Events {
		if !ringKinds[e.Kind] {
			t.Errorf("ring dump holds a %s event, which only a trace carries", e.Kind)
		}
	}
}

// TestAnalyzeOneRunTwoDumps: the ring dump and the trace of one run are two
// views of one stream. Fed either or both, peastat counts each deopt and each
// compile once, and reads one latency per compile; the ring dump alone
// converts to a non-empty Chrome trace. Dumps of two different runs are two
// streams: nothing of the second is dropped as a repeat of the first.
func TestAnalyzeOneRunTwoDumps(t *testing.T) {
	prog := loadExample(t, "../../examples/specdeopt.mj")
	run := func() (ring, trace []byte, machine *VM) {
		var tr bytes.Buffer
		machine = New(prog, Options{EA: EAPartial, Speculate: true,
			Sink: obs.NewSink(obs.NewJSONBackend(&tr))})
		if _, err := machine.Run(); err != nil {
			t.Fatal(err)
		}
		return ringDump(t, machine), tr.Bytes(), machine
	}
	ring, trace, machine := run()
	deopts := machine.Env.Stats.Deopts
	bs := machine.Broker().Stats()
	compiles := int(bs.Installed + bs.Failed)
	if deopts == 0 || compiles == 0 {
		t.Fatalf("specdeopt ran %d deopts and %d compiles; the test needs both", deopts, compiles)
	}
	analyze := func(streams ...[]byte) *stat.Report {
		t.Helper()
		rep, err := stat.Analyze(bytes.NewReader(bytes.Join(streams, nil)))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	for name, rep := range map[string]*stat.Report{
		"ring": analyze(ring), "trace": analyze(trace), "ring+trace": analyze(ring, trace),
	} {
		if rep.Deopts != deopts {
			t.Errorf("%s: %d deopts, the VM ran %d", name, rep.Deopts, deopts)
		}
		if rep.CompileCount != compiles {
			t.Errorf("%s: %d compile latencies, the broker resolved %d units (%d installs + %d failures)",
				name, rep.CompileCount, compiles, bs.Installed, bs.Failed)
		}
	}
	if rep := analyze(ring, trace); rep.Duplicates != len(decodeEvents(t, "ring", ring)) {
		t.Errorf("ring+trace: %d lines read twice, want every ring line (%d)",
			rep.Duplicates, len(decodeEvents(t, "ring", ring)))
	}

	var chrome bytes.Buffer
	tw := obs.NewTraceWriter(&chrome)
	for _, e := range analyze(ring).Events {
		tw.Write(&e)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var records []map[string]any
	if err := json.Unmarshal(chrome.Bytes(), &records); err != nil || len(records) == 0 {
		t.Fatalf("chrome conversion of the ring dump = %d records (%v):\n%s", len(records), err, chrome.String())
	}

	ring2, trace2, _ := run()
	rep := analyze(ring, trace, ring2, trace2)
	if rep.Deopts != 2*deopts || rep.CompileCount != 2*compiles {
		t.Errorf("two runs: %d deopts and %d compiles, want %d and %d (no occurrence of the second run dropped)",
			rep.Deopts, rep.CompileCount, 2*deopts, 2*compiles)
	}
}

// everyRingKindSrc exercises each kind the ring keeps: step speculates
// (phase is 0 while it warms up) and deoptimizes with its Box virtual,
// publish materializes at a static store, keep passes a Box to mix — past the
// inliner's budget and blind to its argument — so its summary keeps the Box
// virtual across the call, crash's compile panics (a fault hook), big's
// exceeds the IR budget, and spin's loop is compiled for on-stack
// replacement.
var everyRingKindSrc = `
class Box {
	int v;
	static Box sink;
	Box(int v) { this.v = v; }
}
class Main {
	static int step(int i, int phase) {
		Box b = new Box(i * 7);
		if (phase > 0) {
			Box.sink = b;
		}
		return b.v;
	}
	static int publish(int i) {
		Box b = new Box(i);
		Box.sink = b;
		return b.v;
	}
	static int mix(Box p, int a) {
		int s = a;
` + strings.Repeat("\t\ts = s * 3 + 1;\n", 30) + `		return s;
	}
	static int keep(int i) {
		Box b = new Box(i);
		return mix(b, i) + b.v;
	}
	static int crash(int i) { return i + 1; }
	static int big(int i) {
		int s = i;
` + strings.Repeat("\t\ts = s * 5 + i;\n", 150) + `		return s;
	}
	static int spin(int n) {
		int s = 0;
		int i = 0;
		while (i < n) {
			s = s + i;
			i = i + 1;
		}
		return s;
	}
	static void main() {}
}
`

// TestRingIsSubStreamOfTrace runs a traced VM through every kind the ring
// keeps — on a background broker, so submissions queue — and checks that its
// ring dump is a sub-stream of its trace: every ring line is an obs.Event
// equal to the trace event of the same seq on every field the ring keeps,
// and every trace event of a ring kind has its ring line.
func TestRingIsSubStreamOfTrace(t *testing.T) {
	prog, err := mj.Compile(everyRingKindSrc, "Main.main")
	if err != nil {
		t.Fatal(err)
	}
	var tr bytes.Buffer
	opts := withJIT(t, Options{
		EA: EAPartial, Speculate: true, CheckLevel: check.Basic,
		CompileThreshold: 5, OSRThreshold: 50, MaxIRNodes: 400,
		Sink: obs.NewSink(obs.NewJSONBackend(&tr)),
	}, broker.Options{Workers: 1, InjectFault: panicAt("opt", "Main.crash")})
	machine := New(prog, opts)
	main := prog.ClassByName("Main")
	call := func(name string, args ...int64) {
		t.Helper()
		vals := make([]rt.Value, len(args))
		for i, a := range args {
			vals[i] = rt.IntValue(a)
		}
		if _, err := machine.Call(main.MethodByName(name), vals); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for round := 0; round < 2; round++ {
		for i := int64(0); i < 10; i++ {
			call("step", i, 0)
			call("publish", i)
			call("keep", i)
			call("crash", i)
			call("big", i)
		}
		machine.DrainJIT()
	}
	call("spin", 2000) // requests the OSR compile
	machine.DrainJIT()
	call("spin", 2000) // enters it at the first back edge
	call("step", 3, 1) // deoptimizes, rematerializing the Box
	machine.DrainJIT()

	ring := decodeEvents(t, "ring", ringDump(t, machine))
	trace := decodeEvents(t, "trace", tr.Bytes())
	bySeq := make(map[int64]obs.Event, len(trace))
	for _, e := range trace {
		bySeq[e.Seq] = e
	}
	// traceOnly lists, per kind, the fields the ring does not keep.
	traceOnly := map[obs.Kind][]string{
		obs.KindMaterialize:        {"Node", "Block"},
		obs.KindMergeMaterialize:   {"Block"},
		obs.KindSummaryKeptVirtual: {"Node", "Block"},
		obs.KindVMRematerialize:    {"Detail"},
	}
	seen := make(map[obs.Kind]bool)
	inRing := make(map[int64]bool, len(ring))
	for _, r := range ring {
		inRing[r.Seq] = true
		seen[r.Kind] = true
		te, ok := bySeq[r.Seq]
		if !ok {
			t.Fatalf("ring line %+v has no trace event", r)
		}
		want := te
		for _, f := range traceOnly[te.Kind] {
			reflect.ValueOf(&want).Elem().FieldByName(f).SetZero()
		}
		if r != want {
			t.Errorf("ring line and trace event of seq %d differ:\nring  %+v\ntrace %+v", r.Seq, r, te)
		}
	}
	if len(ring) == 0 {
		t.Fatal("empty ring")
	}
	oldest := ring[0].Seq
	for _, e := range trace {
		if ringKinds[e.Kind] && e.Seq >= oldest && !inRing[e.Seq] {
			t.Errorf("trace event %+v of a ring kind has no ring line", e)
		}
	}

	for k := range ringKinds {
		if !seen[k] && k != obs.KindMergeMaterialize {
			t.Errorf("the run recorded no %s", k)
		}
	}
	var queued, budget bool
	for _, r := range ring {
		queued = queued || (r.Kind == obs.KindBrokerSubmit && r.NodesAfter > 0)
		budget = budget || (r.Kind == obs.KindCompileFail && strings.HasPrefix(r.Reason, "nodes@"))
	}
	if !queued || !budget {
		t.Errorf("queued submission recorded: %v; budget bailout recorded: %v", queued, budget)
	}
}

// TestEscapeAttributionSyncAsyncAgree: per-allocation-site escape decisions
// are a property of the method's code, not of when the broker got around to
// compiling it. For a spread of generated programs, the per-site
// virtualized/materialized/lock-elision counts must be identical between
// synchronous tier-up and background-worker compilation (speculation and
// OSR off, so each method compiles exactly once in both modes).
func TestEscapeAttributionSyncAsyncAgree(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	type siteKey struct {
		site  string
		class string
	}
	run := func(p testprog.Program, workers int) map[siteKey][3]int64 {
		t.Helper()
		esc := obs.NewEscapeTable()
		opts := Options{
			EA: EAPartial, CheckLevel: check.Basic,
			MaxSteps: 50_000_000, CompileThreshold: 4,
			Sink: obs.NewSink(esc),
		}
		machine := New(p.Prog, withJIT(t, opts, broker.Options{Workers: workers}))
		defer machine.Broker().Close() // per seed, not all at the end
		for round := 0; round < 7; round++ {
			for _, args := range p.ArgSets {
				vals := []rt.Value{rt.IntValue(args[0]), rt.IntValue(args[1])}
				if _, err := machine.Call(p.Entry, vals); err != nil {
					break
				}
			}
		}
		machine.DrainJIT()
		for m, cerr := range machine.FailedCompilations() {
			t.Fatalf("%s: compiling %s: %v", p.Name, m.QualifiedName(), cerr)
		}
		sites := make(map[siteKey][3]int64)
		for _, s := range esc.Snapshot() {
			sites[siteKey{s.Site, s.Class}] = [3]int64{s.Virtualized, s.Materialized, s.LocksElided}
		}
		return sites
	}
	for seed := 0; seed < seeds; seed++ {
		p := testprog.Generate(int64(seed))
		sync := run(p, 0)
		async := run(p, 2)
		if len(sync) != len(async) {
			t.Fatalf("seed %d: %d sites sync vs %d async\nsync: %v\nasync: %v",
				seed, len(sync), len(async), sync, async)
		}
		for k, sv := range sync {
			if av, ok := async[k]; !ok || av != sv {
				t.Fatalf("seed %d site %s (%s): sync virt/mat/locks %v, async %v",
					seed, k.site, k.class, sv, async[k])
			}
		}
	}
}
