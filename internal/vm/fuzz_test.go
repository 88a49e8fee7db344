package vm

import (
	"errors"
	"os"
	"testing"

	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/rt"
	"pea/internal/testprog"
)

// fuzzOutcome captures everything observable about one configuration's run
// over the full argument sequence of a generated program.
type fuzzOutcome struct {
	results []rt.Value
	errs    []bool
	traps   []string // identity (reason, innermost method, bci) of each trap
	out     []int64
	allocs  int64
	monOps  int64
	sinkSet bool
	sinkV   int64
	acc     int64
	vm      Stats
}

// runFuzzConfig executes every argument set several times in one VM (so
// the JIT warms up and compiled code runs) and returns the observation.
func runFuzzConfig(t *testing.T, p testprog.Program, opts Options) fuzzOutcome {
	t.Helper()
	opts.MaxSteps = 50_000_000
	opts.CompileThreshold = 4
	machine := New(p.Prog, opts)
	var o fuzzOutcome
	for round := 0; round < 7; round++ {
		for _, args := range p.ArgSets {
			vals := []rt.Value{rt.IntValue(args[0]), rt.IntValue(args[1])}
			v, err := machine.Call(p.Entry, vals)
			if round == 6 {
				o.results = append(o.results, v)
				o.errs = append(o.errs, err != nil)
				trap := ""
				if err != nil {
					trap = err.Error()
				}
				o.traps = append(o.traps, trap)
			}
			if err != nil {
				// Traps abort only this call; state may diverge
				// afterwards, so stop the sequence deterministically.
				break
			}
		}
	}
	for m, cerr := range machine.FailedCompilations() {
		// Under PEA_FAULT the fault-smoke job injects compiler panics on
		// purpose; the containment layer degrades the victim to the
		// interpreter, and the differential checks below still apply in
		// full. Any other failure kind remains fatal.
		var pe *broker.PanicError
		if os.Getenv("PEA_FAULT") != "" && errors.As(cerr, &pe) {
			continue
		}
		t.Fatalf("%s: compiling %s: %v", p.Name, m.QualifiedName(), cerr)
	}
	sink := p.Prog.ClassByName("Box").StaticByName("sink")
	acc := p.Prog.ClassByName("Box").StaticByName("acc")
	o.out = machine.Env.Output
	o.allocs = machine.Env.Stats.Allocations
	o.monOps = machine.Env.Stats.MonitorOps
	o.acc = machine.Env.GetStatic(acc).I
	if sv := machine.Env.GetStatic(sink); sv.Ref != nil {
		o.sinkSet = true
		o.sinkV = sv.Ref.Fields[0].I
	}
	o.vm = machine.Stats()
	return o
}

// runFuzzConfigWarm is the server's shape: the configuration runs twice on
// one shared broker, and the observation is the second VM's — the one that
// finds the first VM's artifacts in the cache and, unless it speculates,
// installs them at first call / first back edge instead of warming up.
func runFuzzConfigWarm(t *testing.T, p testprog.Program, opts Options) (cold, warm fuzzOutcome) {
	t.Helper()
	opts.JIT = sharedBroker(t)
	return runFuzzConfig(t, p, opts), runFuzzConfig(t, p, opts)
}

// TestFuzzedProgramsAgreeAcrossModes generates pseudo-random programs and
// runs each under every VM configuration: all must produce identical
// per-call results, outputs and final statics, and the escape-analysis
// modes must never allocate or lock more than the baseline. This is the
// system-level differential fuzzer; any miscompilation in the builder, the
// optimizer, EA, PEA, speculation, or the deoptimization runtime shows up
// here.
func TestFuzzedProgramsAgreeAcrossModes(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 30
	}
	configs := []struct {
		name string
		opts Options
		// warm observes a second VM on a broker the first one populated.
		warm bool
	}{
		{name: "interp", opts: Options{Interpret: true}},
		{name: "jit", opts: Options{EA: EAOff, CheckLevel: check.Basic}},
		{name: "jit-ea", opts: Options{EA: EAFlowInsensitive, CheckLevel: check.Basic}},
		{name: "jit-pea", opts: Options{EA: EAPartial, CheckLevel: check.Basic}},
		{name: "jit-pea-spec", opts: Options{EA: EAPartial, Speculate: true, CheckLevel: check.Basic}},
		{name: "jit-pea-osr", opts: Options{EA: EAPartial, OSRThreshold: 8, CheckLevel: check.Basic}},
		{name: "jit-pea-osr-spec", opts: Options{EA: EAPartial, OSRThreshold: 8, Speculate: true, CheckLevel: check.Basic}},
		{name: "jit-pea-warm", opts: Options{EA: EAPartial, CheckLevel: check.Basic}, warm: true},
		{name: "jit-pea-osr-warm", opts: Options{EA: EAPartial, OSRThreshold: 8, CheckLevel: check.Basic}, warm: true},
		{name: "jit-pea-osr-spec-warm", opts: Options{EA: EAPartial, OSRThreshold: 8, Speculate: true, CheckLevel: check.Basic}, warm: true},
	}
	// A speculating VM installs cache-first only once a method has
	// deoptimized out of speculation, so that configuration is held to it
	// over the whole seed range rather than per program.
	var specWarmInstalls int64
	for seed := 0; seed < seeds; seed++ {
		p := testprog.Generate(int64(seed))
		ref := runFuzzConfig(t, p, configs[0].opts)
		for _, cfg := range configs[1:] {
			var cold, o fuzzOutcome
			if cfg.warm {
				cold, o = runFuzzConfigWarm(t, p, cfg.opts)
			} else {
				o = runFuzzConfig(t, p, cfg.opts)
			}
			if len(o.results) != len(ref.results) {
				t.Fatalf("seed %d %s: %d final-round calls vs %d",
					seed, cfg.name, len(o.results), len(ref.results))
			}
			for i := range ref.results {
				if o.errs[i] != ref.errs[i] {
					t.Fatalf("seed %d %s call %d: trap divergence", seed, cfg.name, i)
				}
				if !o.errs[i] && !o.results[i].Equal(ref.results[i]) {
					t.Fatalf("seed %d %s call %d: result %v, interp %v",
						seed, cfg.name, i, o.results[i], ref.results[i])
				}
			}
			if o.acc != ref.acc {
				t.Fatalf("seed %d %s: acc %d, interp %d", seed, cfg.name, o.acc, ref.acc)
			}
			if o.sinkSet != ref.sinkSet || (o.sinkSet && o.sinkV != ref.sinkV) {
				t.Fatalf("seed %d %s: sink (%v,%d), interp (%v,%d)",
					seed, cfg.name, o.sinkSet, o.sinkV, ref.sinkSet, ref.sinkV)
			}
			if len(o.out) != len(ref.out) {
				t.Fatalf("seed %d %s: output length %d vs %d",
					seed, cfg.name, len(o.out), len(ref.out))
			}
			for i := range ref.out {
				if o.out[i] != ref.out[i] {
					t.Fatalf("seed %d %s: output[%d] %d vs %d",
						seed, cfg.name, i, o.out[i], ref.out[i])
				}
			}
			if o.allocs > ref.allocs {
				t.Fatalf("seed %d %s: %d allocations vs interp %d",
					seed, cfg.name, o.allocs, ref.allocs)
			}
			if o.monOps > ref.monOps {
				t.Fatalf("seed %d %s: %d monitor ops vs interp %d",
					seed, cfg.name, o.monOps, ref.monOps)
			}
			if !cfg.warm {
				continue
			}
			for i := range ref.traps {
				if o.traps[i] != ref.traps[i] {
					t.Fatalf("seed %d %s call %d: trap %q, interp %q",
						seed, cfg.name, i, o.traps[i], ref.traps[i])
				}
			}
			switch {
			case cfg.opts.Speculate:
				specWarmInstalls += o.vm.WarmInstalls
			case cold.vm.CompiledMethods+cold.vm.OSRCompilations > 0 && o.vm.WarmInstalls == 0:
				t.Fatalf("seed %d %s: second VM installed nothing cache-first (first VM: %+v)",
					seed, cfg.name, cold.vm)
			}
		}
	}
	if specWarmInstalls == 0 {
		t.Fatalf("no speculating second VM ever installed cache-first after a deopt over %d seeds", seeds)
	}
}
