package vm

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/obs"
	"pea/internal/rt"
	"pea/internal/stat"
	"pea/internal/testprog"
)

// TestFlightDumpOnPanic: a contained compiler panic with CrashDir set must
// leave a flight-recorder dump next to the crash reproducer — the black box
// that says what the JIT was doing leading up to the crash — and the dump
// must replay cleanly through the offline analyzer.
func TestFlightDumpOnPanic(t *testing.T) {
	dir := t.TempDir()
	prog, m := buildCounter(t)
	machine := New(prog, Options{
		EA: EAPartial, CompileThreshold: 2, Seed: 7,
		CrashDir: dir, InjectFault: panicAt("opt", "C.m"),
	})
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
		t.Fatalf("flight dump not written next to the crash repro: %v", err)
	}
	if !strings.Contains(string(data), `"kind":"panic"`) {
		t.Errorf("flight dump has no panic record:\n%s", data)
	}
	if !strings.Contains(string(data), `"kind":"compile_start"`) {
		t.Errorf("flight dump has no compile_start record:\n%s", data)
	}

	rep, err := stat.Analyze(strings.NewReader(string(data)))
	if err != nil {
		t.Fatalf("peastat cannot analyze the dump: %v", err)
	}
	if rep.FlightEvents == 0 || rep.ObsEvents != 0 {
		t.Errorf("analyzer saw %d flight / %d obs events, want >0/0",
			rep.FlightEvents, rep.ObsEvents)
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
