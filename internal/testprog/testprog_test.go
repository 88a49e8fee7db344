package testprog_test

import (
	"testing"

	"pea/internal/bc"
	"pea/internal/build"
	"pea/internal/check"
	"pea/internal/exec"
	"pea/internal/interp"
	"pea/internal/ir"
	"pea/internal/opt"
	"pea/internal/pea"
	"pea/internal/rt"
	"pea/internal/testprog"
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

// compileStrict runs the full front end over one method with the strict
// sanitizer at every phase boundary and returns the final graph.
func compileStrict(t *testing.T, prog *bc.Program, m *bc.Method) *ir.Graph {
	t.Helper()
	g, err := build.Build(m)
	if err != nil {
		t.Fatalf("%s: build: %v", m.QualifiedName(), err)
	}
	pipe := &opt.Pipeline{Phases: []opt.Phase{
		&opt.Inliner{BuildGraph: build.Build, Program: prog},
		opt.Canonicalize{}, opt.SimplifyCFG{}, opt.GVN{}, opt.DCE{},
	}, Check: check.Strict}
	if err := pipe.Run(g); err != nil {
		t.Fatalf("%s: opt: %v", m.QualifiedName(), err)
	}
	if _, err := pea.Run(g, pea.Config{Check: check.Strict}); err != nil {
		t.Fatalf("%s: pea: %v", m.QualifiedName(), err)
	}
	if err := check.Graph(g, check.Strict); err != nil {
		t.Fatalf("%s: strict check after pea: %v\n%s", m.QualifiedName(), err, ir.Dump(g))
	}
	return g
}

// TestCorpusCompilesStrict: the whole corpus flows through
// build→inline→canon→GVN→DCE→PEA with zero strict-checker violations, and
// the compiled entry agrees with the interpreter on every argument vector.
func TestCorpusCompilesStrict(t *testing.T) {
	for _, p := range testprog.Corpus() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			graphs := make(map[*bc.Method]*ir.Graph)
			for _, m := range p.Prog.Methods {
				graphs[m] = compileStrict(t, p.Prog, m)
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
		for _, m := range p.Prog.Methods {
			if err := bc.Verify(m); err != nil {
				t.Fatalf("seed %d %s: verify: %v", seed, m.QualifiedName(), err)
			}
			compileStrict(t, p.Prog, m)
		}
	}
}
