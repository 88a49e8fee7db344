package vm

import (
	"errors"
	"os"
	"testing"

	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/obs"
	"pea/internal/rt"
	"pea/internal/testprog"
)

// backendOutcome is everything observable about one backend's run over a
// generated program: per-call semantics, final heap state, heap-effect
// counters, deopt behavior, and the escape-attribution table.
type backendOutcome struct {
	results []rt.Value
	errs    []bool
	out     []int64
	acc     int64
	sinkSet bool
	sinkV   int64

	allocs  int64
	monOps  int64
	deopts  int64
	remats  int64
	escapes string
	warm    int64 // Stats.WarmInstalls

	// degraded: an injected compiler panic (PEA_FAULT) left some method in
	// the interpreter, so the heap-effect counters are not comparable.
	degraded bool
}

// runBackendConfig executes every argument set several times in one VM (so
// the JIT warms up and both freshly compiled and cached code run) and
// returns the observation. The escape table aggregates the PEA pipeline's
// per-site decisions, so it checks that backend selection never leaks into
// compile-time analysis.
func runBackendConfig(t *testing.T, p testprog.Program, opts Options) backendOutcome {
	t.Helper()
	et := obs.NewEscapeTable()
	opts.Sink = obs.NewSink(et)
	opts.MaxSteps = 50_000_000
	opts.CompileThreshold = 4
	opts.CheckLevel = check.Strict
	machine := New(p.Prog, opts)
	defer machine.Close()
	var o backendOutcome
	for round := 0; round < 7; round++ {
		for _, args := range p.ArgSets {
			vals := []rt.Value{rt.IntValue(args[0]), rt.IntValue(args[1])}
			v, err := machine.Call(p.Entry, vals)
			if round == 6 {
				o.results = append(o.results, v)
				o.errs = append(o.errs, err != nil)
			}
			if err != nil {
				break
			}
		}
	}
	machine.DrainJIT()
	for m, cerr := range machine.FailedCompilations() {
		// Under PEA_FAULT the fault-smoke job injects compiler panics on
		// purpose (exactly as in runFuzzConfig); the containment layer
		// degrades the victim to the interpreter. Any other failure kind
		// remains fatal.
		var pe *broker.PanicError
		if os.Getenv("PEA_FAULT") != "" && errors.As(cerr, &pe) {
			o.degraded = true
			continue
		}
		t.Fatalf("%s: compiling %s: %v", p.Name, m.QualifiedName(), cerr)
	}
	sink := p.Prog.ClassByName("Box").StaticByName("sink")
	acc := p.Prog.ClassByName("Box").StaticByName("acc")
	o.out = machine.Env.Output
	o.acc = machine.Env.GetStatic(acc).I
	if sv := machine.Env.GetStatic(sink); sv.Ref != nil {
		o.sinkSet = true
		o.sinkV = sv.Ref.Fields[0].I
	}
	o.allocs = machine.Env.Stats.Allocations
	o.monOps = machine.Env.Stats.MonitorOps
	o.deopts = machine.Env.Stats.Deopts
	o.remats = machine.Env.Stats.Materializations
	o.escapes = et.Table()
	o.warm = machine.Stats().WarmInstalls
	return o
}

// TestFuzzBackendDifferential runs generated programs under the oracle and
// closure backends in the same JIT configurations and requires identical
// observable behavior. Synchronous configurations are deterministic, so the
// comparison is total: results, traps, output, final statics, allocation
// and monitor counts, deopt counts, materializations, and the per-site
// escape-attribution table must all match. Asynchronous configurations
// compile on background workers, so install timing (and hence how many
// calls run compiled vs interpreted) legitimately varies; there the
// comparison covers everything semantically visible to the program. The same
// holds for a run in which an injected compiler panic (PEA_FAULT) degraded a
// method to the interpreter on either side.
//
// The name contains "Fuzz" so CI's race-mode fuzz smoke job
// (-run Fuzz ./internal/vm) exercises both backends under the detector.
func TestFuzzBackendDifferential(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 12
	}
	configs := []struct {
		name   string
		strict bool // deterministic: compare heap effects + escape table too
		opts   Options
		// workers > 0 compiles on that many background broker workers.
		workers int
		// warm observes, per backend, a second VM on a shared broker the
		// first one populated: every artifact it runs was lowered for
		// another VM and installed cache-first.
		warm bool
	}{
		{name: "sync", strict: true, opts: Options{EA: EAPartial, Speculate: true}},
		{name: "sync-osr", strict: true, opts: Options{EA: EAPartial, Speculate: true, OSRThreshold: 8}},
		{name: "async", opts: Options{EA: EAPartial, Speculate: true}, workers: 2},
		{name: "async-osr", opts: Options{EA: EAPartial, Speculate: true, OSRThreshold: 8}, workers: 2},
		{name: "sync-osr-warm", strict: true, opts: Options{EA: EAPartial, OSRThreshold: 8}, warm: true},
	}
	for seed := 0; seed < seeds; seed++ {
		p := testprog.Generate(int64(seed))
		for _, cfg := range configs {
			run := func(b Backend) backendOutcome {
				o := cfg.opts
				o.Backend = b
				if cfg.workers > 0 || cfg.warm {
					o.JIT = broker.New(broker.Options{Workers: cfg.workers, Check: check.Strict})
					defer o.JIT.Close()
				}
				if cfg.warm {
					runBackendConfig(t, p, o)
				}
				return runBackendConfig(t, p, o)
			}
			ref := run(BackendOracle)
			got := run(BackendClosure)

			if len(got.results) != len(ref.results) {
				t.Fatalf("seed %d %s: %d final-round calls vs oracle %d",
					seed, cfg.name, len(got.results), len(ref.results))
			}
			for i := range ref.results {
				if got.errs[i] != ref.errs[i] {
					t.Fatalf("seed %d %s call %d: trap divergence", seed, cfg.name, i)
				}
				if !got.errs[i] && !got.results[i].Equal(ref.results[i]) {
					t.Fatalf("seed %d %s call %d: closure %v, oracle %v",
						seed, cfg.name, i, got.results[i], ref.results[i])
				}
			}
			if got.acc != ref.acc {
				t.Fatalf("seed %d %s: acc %d, oracle %d", seed, cfg.name, got.acc, ref.acc)
			}
			if got.sinkSet != ref.sinkSet || (got.sinkSet && got.sinkV != ref.sinkV) {
				t.Fatalf("seed %d %s: sink (%v,%d), oracle (%v,%d)",
					seed, cfg.name, got.sinkSet, got.sinkV, ref.sinkSet, ref.sinkV)
			}
			if len(got.out) != len(ref.out) {
				t.Fatalf("seed %d %s: output length %d vs %d",
					seed, cfg.name, len(got.out), len(ref.out))
			}
			for i := range ref.out {
				if got.out[i] != ref.out[i] {
					t.Fatalf("seed %d %s: output[%d] %d vs %d",
						seed, cfg.name, i, got.out[i], ref.out[i])
				}
			}
			if !cfg.strict || ref.degraded || got.degraded {
				continue
			}
			if got.allocs != ref.allocs {
				t.Fatalf("seed %d %s: %d allocations, oracle %d",
					seed, cfg.name, got.allocs, ref.allocs)
			}
			if got.monOps != ref.monOps {
				t.Fatalf("seed %d %s: %d monitor ops, oracle %d",
					seed, cfg.name, got.monOps, ref.monOps)
			}
			if got.deopts != ref.deopts {
				t.Fatalf("seed %d %s: %d deopts, oracle %d",
					seed, cfg.name, got.deopts, ref.deopts)
			}
			if got.remats != ref.remats {
				t.Fatalf("seed %d %s: %d materializations, oracle %d",
					seed, cfg.name, got.remats, ref.remats)
			}
			if got.escapes != ref.escapes {
				t.Fatalf("seed %d %s: escape tables diverge\nclosure:\n%s\noracle:\n%s",
					seed, cfg.name, got.escapes, ref.escapes)
			}
			if got.warm != ref.warm || (cfg.warm && got.warm == 0) {
				t.Fatalf("seed %d %s: %d cache-first installs, oracle %d",
					seed, cfg.name, got.warm, ref.warm)
			}
		}
	}
}
