package vm

import (
	"os"
	"path/filepath"
	"testing"

	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/rt"
	"pea/internal/testprog"
)

// TestRegenerateCrashCorpus regenerates the committed crash-reproducer
// corpus under internal/vm/testdata/. It is gated behind PEA_REGEN_CRASH
// because it overwrites committed files: it injects a deterministic
// compiler panic into the PEA phase of a generated program, lets the
// containment layer minimize and save the repro, and leaves the JSON in
// testdata for TestCommittedCrashReprosCompile to replay forever after.
//
//	PEA_REGEN_CRASH=1 go test ./internal/vm -run TestRegenerateCrashCorpus
func TestRegenerateCrashCorpus(t *testing.T) {
	if os.Getenv("PEA_REGEN_CRASH") == "" {
		t.Skip("set PEA_REGEN_CRASH=1 to regenerate the committed crash corpus")
	}
	const seed = 42
	p := testprog.Generate(seed)
	machine := New(p.Prog, withJIT(t, Options{
		EA: EAPartial, CompileThreshold: 2, Seed: seed, CrashDir: "testdata",
	}, broker.Options{InjectFault: panicAt("pea", p.Entry.QualifiedName())}))
	for i := 0; i < 5; i++ {
		args := p.ArgSets[i%len(p.ArgSets)]
		if _, err := machine.Call(p.Entry, []rt.Value{rt.IntValue(args[0]), rt.IntValue(args[1])}); err != nil {
			break // traps in the generated program are fine; hotness still accumulates
		}
	}
	if machine.Stats().CrashRepros != 1 {
		t.Fatalf("crash repros = %d, want 1", machine.Stats().CrashRepros)
	}
}

// TestCommittedCrashReprosCompile replays every committed crash repro:
// the JSON must load, apply onto the generator program identified by its
// recorded seed, verify as bytecode, and compile cleanly under the full
// strictest pipeline. The corpus entries are bodies that once crashed a
// (fault-injected) compiler — this test pins that the repro format stays
// loadable and that today's compiler handles the bodies without incident.
func TestCommittedCrashReprosCompile(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "crash-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed crash repros found (run TestRegenerateCrashCorpus with PEA_REGEN_CRASH=1)")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			r, err := check.LoadRepro(path)
			if err != nil {
				t.Fatal(err)
			}
			p := testprog.Generate(int64(r.Seed))
			m, err := r.Apply(p.Prog)
			if err != nil {
				t.Fatalf("repro no longer applies: %v", err)
			}
			machine := New(p.Prog, Options{EA: EAPartial, Speculate: false, CheckLevel: check.Strict, Seed: r.Seed})
			g, err := machine.Compile(m)
			if err != nil {
				t.Fatalf("repro body no longer compiles: %v", err)
			}
			if g == nil {
				t.Fatal("nil graph")
			}
		})
	}
}
