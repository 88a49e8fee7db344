package summary

import (
	"strings"
	"testing"

	"pea/internal/bc"
	"pea/internal/build"
	"pea/internal/ir"
)

// assemble builds a program or fails the test.
func assemble(t *testing.T, f func(a *bc.Assembler)) *bc.Program {
	t.Helper()
	a := bc.NewAssembler()
	f(a)
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func methodOf(t *testing.T, p *bc.Program, class, name string) *bc.Method {
	t.Helper()
	m := p.ClassByName(class).MethodByName(name)
	if m == nil {
		t.Fatalf("method %s.%s not found", class, name)
	}
	return m
}

// latticeProgram has one method per lattice level plus a transitive chain:
//
//	sink(b)        { S = b }                      // GlobalEscape
//	reads(b)       { return b.v }                 // ArgEscape
//	ignores(b, x)  { return x + x }               // NoEscape (b untouched)
//	pass(b, x)     { return ignores(b, x) }       // NoEscape transitively
//	deep(b, x)     { return pass(b, x) }          // NoEscape through 2 hops
func latticeProgram(t *testing.T) *bc.Program {
	return assemble(t, func(a *bc.Assembler) {
		box := a.Class("Box", "")
		vField := box.Field("v", bc.KindInt)
		sinkF := box.Static("S", bc.KindRef)

		c := a.Class("C", "")
		sink := c.Method("sink", []bc.Kind{bc.KindRef}, bc.KindVoid, true)
		sink.Load(0).PutStatic(sinkF).Return()

		reads := c.Method("reads", []bc.Kind{bc.KindRef}, bc.KindInt, true)
		reads.Load(0).GetField(vField).ReturnValue()

		ignores := c.Method("ignores", []bc.Kind{bc.KindRef, bc.KindInt}, bc.KindInt, true)
		ignores.Load(1).Load(1).Add().ReturnValue()

		pass := c.Method("pass", []bc.Kind{bc.KindRef, bc.KindInt}, bc.KindInt, true)
		pass.Load(0).Load(1).InvokeStatic(ignores.Ref()).ReturnValue()

		deep := c.Method("deep", []bc.Kind{bc.KindRef, bc.KindInt}, bc.KindInt, true)
		deep.Load(0).Load(1).InvokeStatic(pass.Ref()).ReturnValue()
	})
}

func TestLatticeLevels(t *testing.T) {
	p := latticeProgram(t)
	s := Compute(p, Options{})
	want := map[string][]Lattice{
		"C.sink":    {GlobalEscape},
		"C.reads":   {ArgEscape},
		"C.ignores": {NoEscape, ArgEscape},
		"C.pass":    {NoEscape, ArgEscape},
		"C.deep":    {NoEscape, ArgEscape},
	}
	for name, levels := range want {
		cls, meth, _ := strings.Cut(name, ".")
		sum := s.Of(methodOf(t, p, cls, meth))
		if sum == nil {
			t.Fatalf("%s: no summary", name)
		}
		for i, l := range levels {
			if sum.ParamEscape[i] != l {
				t.Errorf("%s param %d = %s, want %s", name, i, sum.ParamEscape[i], l)
			}
		}
	}
	st := s.Stats()
	if st.NoEscape != 3 || st.ArgEscape != 1 || st.GlobalEscape != 1 {
		t.Errorf("stats = %+v, want 3 no / 1 arg / 1 global ref params", st)
	}
}

func TestRecursionIsConservative(t *testing.T) {
	p := assemble(t, func(a *bc.Assembler) {
		a.Class("Box", "")
		c := a.Class("C", "")
		rec := c.Method("rec", []bc.Kind{bc.KindRef, bc.KindInt}, bc.KindInt, true)
		rec.Load(1).If(bc.CondLE, "base").
			Load(0).Load(1).Const(1).Sub().InvokeStatic(rec.Ref()).ReturnValue().
			Label("base").Const(0).ReturnValue()

		// mutual: a <-> b
		mb := c.Method("mb", []bc.Kind{bc.KindRef}, bc.KindVoid, true)
		ma := c.Method("ma", []bc.Kind{bc.KindRef}, bc.KindVoid, true)
		ma.Load(0).InvokeStatic(mb.Ref()).Return()
		mb.Load(0).InvokeStatic(ma.Ref()).Return()

		// caller of the cycle: its arg reaches unknown-effect code.
		call := c.Method("call", []bc.Kind{bc.KindRef}, bc.KindVoid, true)
		call.Load(0).Const(3).InvokeStatic(rec.Ref()).Pop().Return()
	})
	s := Compute(p, Options{})
	for _, name := range []string{"rec", "ma", "mb"} {
		sum := s.Of(methodOf(t, p, "C", name))
		if !sum.Conservative {
			t.Errorf("%s: cycle member not conservative", name)
		}
		if sum.ParamEscape[0] != GlobalEscape {
			t.Errorf("%s: cycle member param 0 = %s", name, sum.ParamEscape[0])
		}
	}
	if got := s.Of(methodOf(t, p, "C", "call")).ParamEscape[0]; got != GlobalEscape {
		t.Errorf("caller into cycle: param 0 = %s, want global", got)
	}
	if s.Stats().Cycles != 3 {
		t.Errorf("Cycles = %d, want 3", s.Stats().Cycles)
	}
}

func TestReceiverFlooredToArgEscape(t *testing.T) {
	p := assemble(t, func(a *bc.Assembler) {
		box := a.Class("Box", "")
		// An instance method that never touches `this` beyond dispatch.
		id := box.Method("id", []bc.Kind{bc.KindInt}, bc.KindInt, false)
		id.Load(1).ReturnValue()
	})
	s := Compute(p, Options{})
	sum := s.Of(methodOf(t, p, "Box", "id"))
	if sum.ParamEscape[0] != ArgEscape {
		t.Errorf("receiver = %s, want arg (dispatch observes it)", sum.ParamEscape[0])
	}
}

// A returned parameter is observed by the caller, not stored anywhere.
func TestReturnedParamIsArgEscape(t *testing.T) {
	p := assemble(t, func(a *bc.Assembler) {
		echo := a.Class("C", "").Method("echo", []bc.Kind{bc.KindRef}, bc.KindRef, true)
		echo.Load(0).ReturnValue()
	})
	s := Compute(p, Options{})
	if sum := s.Of(methodOf(t, p, "C", "echo")); sum.ParamEscape[0] != ArgEscape {
		t.Errorf("echo: returned param = %s, want arg", sum.ParamEscape[0])
	}
}

// guardedProgram: the escaping use of b is behind an entry guard on flag:
//
//	guarded(b, flag) { if (flag != 0) { S = b }  return flag }
func guardedProgram(t *testing.T) *bc.Program {
	return assemble(t, func(a *bc.Assembler) {
		box := a.Class("Box", "")
		sinkF := box.Static("S", bc.KindRef)
		c := a.Class("C", "")
		g := c.Method("guarded", []bc.Kind{bc.KindRef, bc.KindInt}, bc.KindInt, true)
		g.Load(1).If(bc.CondEQ, "skip").
			Load(0).PutStatic(sinkF).
			Label("skip").Load(1).ReturnValue()

		// Callers passing constants: flag=0 kills the escaping arm,
		// flag=1 keeps it.
		dead := c.Method("deadArm", []bc.Kind{bc.KindRef}, bc.KindInt, true)
		dead.Load(0).Const(0).InvokeStatic(g.Ref()).ReturnValue()
		live := c.Method("liveArm", []bc.Kind{bc.KindRef}, bc.KindInt, true)
		live.Load(0).Const(1).InvokeStatic(g.Ref()).ReturnValue()
	})
}

func TestPredicateRefinement(t *testing.T) {
	p := guardedProgram(t)
	s := Compute(p, Options{})
	sum := s.Of(methodOf(t, p, "C", "guarded"))
	if sum.ParamEscape[0] != GlobalEscape {
		t.Fatalf("guarded param 0 = %s, want global (unguarded join)", sum.ParamEscape[0])
	}
	if len(sum.Preds) != 1 {
		t.Fatalf("guarded preds = %v, want exactly 1", sum.Preds)
	}
	pr := sum.Preds[0]
	if pr.Param != 0 || pr.IntParam != 1 || pr.Relaxed != NoEscape {
		t.Errorf("pred = %+v, want param 0 guarded by int param 1 relaxing to no-escape", pr)
	}
	// The constant-kills-escaping-arm refinement propagates to callers.
	if got := s.Of(methodOf(t, p, "C", "deadArm")).ParamEscape[0]; got != NoEscape {
		t.Errorf("deadArm param 0 = %s, want no (escaping arm statically dead)", got)
	}
	if got := s.Of(methodOf(t, p, "C", "liveArm")).ParamEscape[0]; got != GlobalEscape {
		t.Errorf("liveArm param 0 = %s, want global", got)
	}
}

func TestArgSafeOnInvokeNode(t *testing.T) {
	p := guardedProgram(t)
	s := Compute(p, Options{})
	g, err := build.Build(methodOf(t, p, "C", "deadArm"))
	if err != nil {
		t.Fatal(err)
	}
	var call *ir.Node
	g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
		if n.Op == ir.OpInvoke {
			call = n
		}
	})
	if call == nil {
		t.Fatal("no invoke in deadArm")
	}
	safe := s.ArgSafe(call)
	if safe == nil {
		t.Fatal("ArgSafe = nil for resolvable static call")
	}
	if !safe[0] || safe[1] {
		t.Errorf("ArgSafe = %v, want [true false] (ref safe via dead arm, int observed)", safe)
	}
}

func TestVirtualDispatchJoinsAllTargets(t *testing.T) {
	p := assemble(t, func(a *bc.Assembler) {
		box := a.Class("Box", "")
		sinkF := box.Static("S", bc.KindRef)

		base := a.Class("Base", "")
		use := base.Method("use", []bc.Kind{bc.KindRef}, bc.KindVoid, false)
		use.Return()
		sub := a.Class("Sub", "Base")
		over := sub.Method("use", []bc.Kind{bc.KindRef}, bc.KindVoid, false)
		over.Load(1).PutStatic(sinkF).Return()

		c := a.Class("C", "")
		call := c.Method("call", []bc.Kind{bc.KindRef, bc.KindRef}, bc.KindVoid, true)
		call.Load(0).Load(1).InvokeVirtual(use.Ref()).Return()
	})
	s := Compute(p, Options{})
	// Base.use never observes its arg; Sub.use globally escapes it. The
	// virtual site must join over both.
	if got := s.Of(methodOf(t, p, "Base", "use")).ParamEscape[1]; got != NoEscape {
		t.Errorf("Base.use arg = %s, want no", got)
	}
	if got := s.Of(methodOf(t, p, "Sub", "use")).ParamEscape[1]; got != GlobalEscape {
		t.Errorf("Sub.use arg = %s, want global", got)
	}
	sum := s.Of(methodOf(t, p, "C", "call"))
	if sum.ParamEscape[1] != GlobalEscape {
		t.Errorf("virtual call arg = %s, want global (CHA join)", sum.ParamEscape[1])
	}
}

func TestMonitorAndThrowContributions(t *testing.T) {
	p := assemble(t, func(a *bc.Assembler) {
		a.Class("Box", "")
		c := a.Class("C", "")
		lock := c.Method("lock", []bc.Kind{bc.KindRef}, bc.KindVoid, true)
		lock.Load(0).MonitorEnter().Load(0).MonitorExit().Return()
		boom := c.Method("boom", []bc.Kind{bc.KindRef}, bc.KindVoid, true)
		boom.Load(0).Throw()
	})
	s := Compute(p, Options{})
	if got := s.Of(methodOf(t, p, "C", "lock")).ParamEscape[0]; got != ArgEscape {
		t.Errorf("locked param = %s, want arg (observed, not global)", got)
	}
	if got := s.Of(methodOf(t, p, "C", "boom")).ParamEscape[0]; got != GlobalEscape {
		t.Errorf("thrown param = %s, want global", got)
	}
}

func TestTableRendersEveryMethod(t *testing.T) {
	p := latticeProgram(t)
	s := Compute(p, Options{})
	tab := s.Table()
	for _, name := range []string{"C.sink", "C.reads", "C.ignores", "C.pass", "C.deep"} {
		if !strings.Contains(tab, name) {
			t.Errorf("table missing %s:\n%s", name, tab)
		}
	}
	if !strings.Contains(tab, "no-escape") {
		t.Errorf("table missing stats footer:\n%s", tab)
	}
}
