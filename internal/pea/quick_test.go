package pea

import (
	"testing"
	"testing/quick"

	"pea/internal/bc"
	"pea/internal/build"
	"pea/internal/exec"
	"pea/internal/interp"
	"pea/internal/ir"
	"pea/internal/opt"
	"pea/internal/rt"
	"pea/internal/testprog"
)

// TestQuickPEAInvariants drives the analysis with generated programs and
// checks the paper's core guarantees as properties:
//
//   - the transformed graph verifies;
//   - results equal the interpreter's;
//   - the dynamic number of allocations and monitor operations never
//     increases ("there will always be at most as many dynamic
//     allocations as in the original code", §4).
func TestQuickPEAInvariants(t *testing.T) {
	check := func(seed uint16) bool {
		p := testprog.Generate(int64(seed) + 100_000) // distinct from vm fuzz seeds
		graphs := make(map[*bc.Method]*ir.Graph)
		for _, m := range p.Prog.Methods {
			g, err := build.Build(m)
			if err != nil {
				t.Logf("seed %d: build: %v", seed, err)
				return false
			}
			pipe := &opt.Pipeline{Phases: []opt.Phase{
				&opt.Inliner{BuildGraph: build.Build, Program: p.Prog},
				opt.Canonicalize{}, opt.SimplifyCFG{}, opt.GVN{}, opt.DCE{},
			}}
			if err := pipe.Run(g); err != nil {
				t.Logf("seed %d: opt: %v", seed, err)
				return false
			}
			if _, err := Run(g, Config{}); err != nil {
				t.Logf("seed %d: pea: %v", seed, err)
				return false
			}
			if err := ir.Verify(g); err != nil {
				t.Logf("seed %d %s: verify: %v\n%s", seed, m.QualifiedName(), err, ir.Dump(g))
				return false
			}
			graphs[m] = g
		}
		for _, args := range p.ArgSets {
			vals := []rt.Value{rt.IntValue(args[0]), rt.IntValue(args[1])}

			envI := rt.NewEnv(p.Prog, 99)
			it := interp.New(envI)
			it.Env.MaxSteps = 2_000_000
			vi, errI := it.Call(p.Entry, vals)

			envE := rt.NewEnv(p.Prog, 99)
			envE.MaxSteps = 2_000_000
			eng := &exec.Engine{Env: envE}
			eng.Invoke = func(callee *bc.Method, as []rt.Value) (rt.Value, error) {
				return eng.Run(graphs[callee], as)
			}
			ve, errE := eng.Run(graphs[p.Entry], vals)

			if (errI == nil) != (errE == nil) {
				t.Logf("seed %d args %v: trap divergence %v vs %v", seed, args, errI, errE)
				return false
			}
			if errI != nil {
				continue
			}
			if !vi.Equal(ve) {
				t.Logf("seed %d args %v: %v vs %v", seed, args, vi, ve)
				return false
			}
			if envE.Stats.Allocations > envI.Stats.Allocations {
				t.Logf("seed %d args %v: allocations %d > %d",
					seed, args, envE.Stats.Allocations, envI.Stats.Allocations)
				return false
			}
			if envE.Stats.MonitorOps > envI.Stats.MonitorOps {
				t.Logf("seed %d args %v: monitors %d > %d",
					seed, args, envE.Stats.MonitorOps, envI.Stats.MonitorOps)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
