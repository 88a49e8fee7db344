package testprog_test

import (
	"testing"

	"pea/internal/bc"
	"pea/internal/check"
	"pea/internal/exec"
	"pea/internal/interp"
	"pea/internal/ir"
	"pea/internal/rt"
	"pea/internal/testprog"
	"pea/internal/vm"
)

// TestCorpusShape pins the structural contract of the corpus: unique
// names, a static entry with int-only parameters, at least one argument
// vector per program, and every argument vector matching the entry arity.
func TestCorpusShape(t *testing.T) {
	seen := make(map[string]bool)
	for _, p := range testprog.Corpus() {
		if seen[p.Name] {
			t.Errorf("duplicate corpus name %q", p.Name)
		}
		seen[p.Name] = true
		if p.Entry == nil || !p.Entry.Static {
			t.Errorf("%s: entry must be a static method", p.Name)
			continue
		}
		for _, k := range p.Entry.Params {
			if k != bc.KindInt {
				t.Errorf("%s: entry parameter of kind %v, want int", p.Name, k)
			}
		}
		if len(p.ArgSets) == 0 {
			t.Errorf("%s: no argument vectors", p.Name)
		}
		for _, args := range p.ArgSets {
			if len(args) < len(p.Entry.Params) {
				t.Errorf("%s: arg vector %v shorter than %d params",
					p.Name, args, len(p.Entry.Params))
			}
		}
	}
}

// TestCorpusVerifies: every method of every corpus program passes the
// bytecode verifier.
func TestCorpusVerifies(t *testing.T) {
	for _, p := range testprog.Corpus() {
		for _, m := range p.Prog.Methods {
			if err := bc.Verify(m); err != nil {
				t.Errorf("%s %s: %v", p.Name, m.QualifiedName(), err)
			}
		}
	}
}

// strictVM returns a PEA VM for prog whose compiles run the strict
// sanitizer at every phase boundary.
func strictVM(t *testing.T, prog *bc.Program) *vm.VM {
	machine := vm.New(prog, vm.Options{EA: vm.EAPartial, CheckLevel: check.Strict})
	t.Cleanup(machine.Close)
	return machine
}

// compileStrict compiles one method through the VM's pipeline and returns
// the final graph.
func compileStrict(t *testing.T, machine *vm.VM, m *bc.Method) *ir.Graph {
	t.Helper()
	g, err := machine.Compile(m)
	if err != nil {
		t.Fatalf("%s: %v", m.QualifiedName(), err)
	}
	return g
}

// TestCorpusCompilesStrict: the whole corpus flows through the VM's
// pipeline (build, inlining, cleanup, PEA, cleanup) with zero strict-checker violations, and
// the compiled entry agrees with the interpreter on every argument vector.
func TestCorpusCompilesStrict(t *testing.T) {
	for _, p := range testprog.Corpus() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			machine := strictVM(t, p.Prog)
			graphs := make(map[*bc.Method]*ir.Graph)
			for _, m := range p.Prog.Methods {
				graphs[m] = compileStrict(t, machine, m)
			}
			for _, args := range p.ArgSets {
				vals := make([]rt.Value, len(p.Entry.Params))
				for i := range vals {
					vals[i] = rt.IntValue(args[i])
				}

				envI := rt.NewEnv(p.Prog, 7)
				it := interp.New(envI)
				it.Env.MaxSteps = 2_000_000
				vi, errI := it.Call(p.Entry, vals)

				envE := rt.NewEnv(p.Prog, 7)
				envE.MaxSteps = 2_000_000
				eng := &exec.Engine{Env: envE}
				eng.Invoke = func(callee *bc.Method, as []rt.Value) (rt.Value, error) {
					return eng.Run(graphs[callee], as)
				}
				ve, errE := eng.Run(graphs[p.Entry], vals)

				if (errI == nil) != (errE == nil) {
					t.Fatalf("args %v: trap divergence: interp %v, compiled %v", args, errI, errE)
				}
				if errI == nil && !vi.Equal(ve) {
					t.Fatalf("args %v: interp %v, compiled %v", args, vi, ve)
				}
			}
		})
	}
}

// TestGeneratedProgramsStrict sweeps the program generator: every method
// of every generated program verifies and compiles under the strict
// sanitizer.
func TestGeneratedProgramsStrict(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		p := testprog.Generate(seed + 700_000) // distinct from other suites' seed ranges
		machine := strictVM(t, p.Prog)
		for _, m := range p.Prog.Methods {
			if err := bc.Verify(m); err != nil {
				t.Fatalf("seed %d %s: verify: %v", seed, m.QualifiedName(), err)
			}
			compileStrict(t, machine, m)
		}
	}
}
