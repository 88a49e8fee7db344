package vm

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pea/internal/bc"
	"pea/internal/check"
	"pea/internal/ir"
	"pea/internal/obs"
	"pea/internal/rt"
)

// deoptAtReturn compiles m(x)=x+1 and replaces the compiled return with an
// OpDeopt carrying the given action and reason, reusing the return's frame
// state so the interpreter can resume and complete the invocation.
func deoptAtReturn(t *testing.T, machine *VM, m *bc.Method, action ir.DeoptAction, reason string) {
	t.Helper()
	g, err := machine.Compile(m)
	if err != nil {
		t.Fatal(err)
	}
	var retBlock *ir.Block
	for _, b := range g.Blocks {
		if b.Term != nil && b.Term.Op == ir.OpReturn {
			retBlock = b
		}
	}
	if retBlock == nil {
		t.Fatal("no return block")
	}
	d := g.NewNode(ir.OpDeopt, bc.KindVoid)
	d.FrameState = retBlock.Term.FrameState
	d.BCI = retBlock.Term.BCI
	d.DeoptReason = reason
	d.Action = action
	retBlock.Succs = nil
	g.SetTerm(retBlock, d)
	if err := ir.Verify(g); err != nil {
		t.Fatal(err)
	}
	code, err := machine.lower(m, g)
	if err != nil {
		t.Fatal(err)
	}
	machine.methods[m.ID].entry.code.Store(&code)
}

// TestNonSpeculativeDeoptKeepsCode is the regression test for the
// invalidate-on-every-deopt bug: a deopt whose action is not
// invalidate-speculation is a point exit. It must not drop the installed
// code, must not count an invalidation or recompilation, and must not
// blacklist future speculation for the method.
func TestNonSpeculativeDeoptKeepsCode(t *testing.T) {
	prog, m := buildCounter(t)
	machine := New(prog, Options{EA: EAPartial, Speculate: true, CompileThreshold: 1 << 30, CheckLevel: check.Basic})
	deoptAtReturn(t, machine, m, ir.DeoptActionNone, "uncommon trap")

	for i := 0; i < 3; i++ {
		v, err := machine.Call(m, []rt.Value{rt.IntValue(41)})
		if err != nil {
			t.Fatal(err)
		}
		if v.I != 42 {
			t.Fatalf("deopt-resumed result = %d, want 42", v.I)
		}
	}
	if machine.Env.Stats.Deopts != 3 {
		t.Fatalf("deopts = %d, want 3", machine.Env.Stats.Deopts)
	}
	st := machine.Stats()
	if st.InvalidatedMethods != 0 {
		t.Fatalf("invalidations = %d, want 0 (non-speculative deopt)", st.InvalidatedMethods)
	}
	if st.Recompilations != 0 {
		t.Fatalf("recompilations = %d, want 0 (non-speculative deopt)", st.Recompilations)
	}
	if machine.CompiledGraph(m) == nil {
		t.Fatal("non-speculative deopt dropped the installed code")
	}
	if !machine.speculates(m) {
		t.Fatal("non-speculative deopt blacklisted future speculation")
	}
}

// TestSpeculationDeoptInvalidatesWithReason checks the other half of the
// contract: a speculation-failure deopt invalidates the code, forbids
// speculation on the recompile, and the invalidation event reports the
// deopt's actual reason rather than a hardcoded "deopt".
func TestSpeculationDeoptInvalidatesWithReason(t *testing.T) {
	prog, m := buildCounter(t)
	var buf bytes.Buffer
	sink := obs.NewSink(obs.NewJSONBackend(&buf))
	machine := New(prog, Options{EA: EAPartial, Speculate: true, CompileThreshold: 1 << 30, CheckLevel: check.Basic, Sink: sink})
	const reason = "untaken branch at C.m"
	deoptAtReturn(t, machine, m, ir.DeoptActionInvalidateSpeculation, reason)

	v, err := machine.Call(m, []rt.Value{rt.IntValue(41)})
	if err != nil {
		t.Fatal(err)
	}
	if v.I != 42 {
		t.Fatalf("deopt-resumed result = %d, want 42", v.I)
	}
	st := machine.Stats()
	if st.InvalidatedMethods != 1 {
		t.Fatalf("invalidations = %d, want 1", st.InvalidatedMethods)
	}
	if machine.CompiledGraph(m) != nil {
		t.Fatal("speculation-failure deopt left the code installed")
	}
	if machine.speculates(m) {
		t.Fatal("speculation still allowed after a speculation-failure deopt")
	}

	var invalidateReason string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if line == "" {
			continue
		}
		var e obs.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad event line %q: %v", line, err)
		}
		if e.Kind == obs.KindVMInvalidate {
			invalidateReason = e.Reason
		}
	}
	if invalidateReason != reason {
		t.Fatalf("invalidate event reason = %q, want %q", invalidateReason, reason)
	}
}
