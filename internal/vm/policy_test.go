package vm

import (
	"testing"

	"pea/internal/bc"
	"pea/internal/check"
	"pea/internal/rt"
)

// buildCounter builds m(x) = x + 1 as a minimal compilable method.
func buildCounter(t *testing.T) (*bc.Program, *bc.Method) {
	t.Helper()
	a := bc.NewAssembler()
	c := a.Class("C", "")
	m := c.Method("m", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	m.Load(0).Const(1).Add().ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	return p, p.ClassByName("C").MethodByName("m")
}

func TestCompileThresholdRespected(t *testing.T) {
	prog, m := buildCounter(t)
	machine := New(prog, Options{EA: EAPartial, CompileThreshold: 10, CheckLevel: check.Basic})
	// Compilation triggers on the first dispatch after the profile
	// reaches the threshold, i.e. on call threshold+1.
	for i := 0; i < 10; i++ {
		if _, err := machine.Call(m, []rt.Value{rt.IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if machine.CompiledGraph(m) != nil {
		t.Fatal("compiled before the threshold was observed")
	}
	if _, err := machine.Call(m, []rt.Value{rt.IntValue(1)}); err != nil {
		t.Fatal(err)
	}
	if machine.CompiledGraph(m) == nil {
		t.Fatal("not compiled once the profile reached the threshold")
	}
	if machine.Stats().CompiledMethods != 1 {
		t.Fatalf("compiled methods = %d", machine.Stats().CompiledMethods)
	}
}

func TestInterpretModeNeverCompiles(t *testing.T) {
	prog, m := buildCounter(t)
	machine := New(prog, Options{Interpret: true, CompileThreshold: 1})
	for i := 0; i < 50; i++ {
		if _, err := machine.Call(m, []rt.Value{rt.IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if machine.Stats().CompiledMethods != 0 {
		t.Fatal("interpret-only mode compiled something")
	}
}

func TestInvalidateForcesNonSpeculativeRecompile(t *testing.T) {
	prog, m := buildCounter(t)
	machine := New(prog, Options{EA: EAPartial, Speculate: true, CompileThreshold: 2, CheckLevel: check.Basic})
	for i := 0; i < 5; i++ {
		if _, err := machine.Call(m, []rt.Value{rt.IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if machine.CompiledGraph(m) == nil {
		t.Fatal("not compiled")
	}
	machine.Invalidate(m, "deopt")
	if machine.CompiledGraph(m) != nil {
		t.Fatal("invalidation did not drop the graph")
	}
	if !machine.methods[m.ID].noSpec.Load() {
		t.Fatal("invalidation must disable speculation for the method")
	}
	if machine.Stats().InvalidatedMethods != 1 {
		t.Fatalf("invalidations = %d", machine.Stats().InvalidatedMethods)
	}
	// Recompile on the next call (profile already hot).
	if _, err := machine.Call(m, []rt.Value{rt.IntValue(1)}); err != nil {
		t.Fatal(err)
	}
	if machine.CompiledGraph(m) == nil {
		t.Fatal("not recompiled after invalidation")
	}
	// Invalidating an uncompiled method is a no-op.
	machine.Invalidate(m, "deopt")
	machine.Invalidate(m, "deopt")
	if machine.Stats().InvalidatedMethods != 2 {
		t.Fatalf("invalidations = %d, want 2", machine.Stats().InvalidatedMethods)
	}
}

func TestEAModeString(t *testing.T) {
	if EAOff.String() != "no-ea" || EAFlowInsensitive.String() != "ea" || EAPartial.String() != "pea" {
		t.Fatal("mode names wrong")
	}
}

func TestRunWithoutMainFails(t *testing.T) {
	prog, _ := buildCounter(t)
	machine := New(prog, Options{})
	if _, err := machine.Run(); err == nil {
		t.Fatal("Run without an entry point must fail")
	}
}
