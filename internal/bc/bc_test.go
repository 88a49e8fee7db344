package bc

import (
	"strings"
	"testing"
)

// buildKeyProgram assembles the paper's Listing 1 example: a Key class with
// idx/ref fields, a constructor, and an equals method; a Cache class with
// static cacheKey/cacheValue; and a Main.getValue driver.
func buildKeyProgram(t *testing.T) *Program {
	t.Helper()
	a := NewAssembler()

	key := a.Class("Key", "")
	idx := key.Field("idx", KindInt)
	ref := key.Field("ref", KindRef)
	init := key.Method("<init>", []Kind{KindInt, KindRef}, KindVoid, false)
	init.Load(0).Load(1).PutField(idx)
	init.Load(0).Load(2).PutField(ref)
	init.Return()
	eq := key.Method("equals", []Kind{KindRef}, KindInt, false)
	eq.Load(0).MonitorEnter()
	eq.Load(0).GetField(idx).Load(1).GetField(idx).IfCmp(CondNE, "ne")
	eq.Load(0).GetField(ref).Load(1).GetField(ref).IfRef(CondNE, "ne")
	eq.Load(0).MonitorExit().Const(1).ReturnValue()
	eq.Label("ne").Load(0).MonitorExit().Const(0).ReturnValue()

	cache := a.Class("Cache", "")
	ck := cache.Static("cacheKey", KindRef)
	cv := cache.Static("cacheValue", KindInt)

	main := a.Class("Main", "")
	gv := main.Method("getValue", []Kind{KindInt, KindRef}, KindInt, true)
	k := gv.NewLocal(KindRef)
	gv.New(key.Ref()).Dup().Load(0).Load(1).InvokeDirect(init.Ref()).Store(k)
	gv.Load(k).GetStatic(ck).InvokeVirtual(eq.Ref()).If(CondEQ, "miss")
	gv.GetStatic(cv).ReturnValue()
	gv.Label("miss").Const(-1).ReturnValue()

	mm := main.Method("main", nil, KindVoid, true)
	mm.Const(42).ConstNull().InvokeStatic(gv.Ref()).Print().Return()

	p, err := a.Finish("Main.main")
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return p
}

func TestAssembleAndLink(t *testing.T) {
	p := buildKeyProgram(t)
	if p.Main == nil || p.Main.QualifiedName() != "Main.main" {
		t.Fatalf("entry point not resolved: %v", p.Main)
	}
	key := p.ClassByName("Key")
	if key == nil {
		t.Fatal("Key class missing")
	}
	if got := key.NumFields(); got != 2 {
		t.Fatalf("Key has %d fields, want 2", got)
	}
	if f := key.FieldByName("idx"); f == nil || f.Offset != 0 {
		t.Fatalf("idx field offset wrong: %+v", f)
	}
	if f := key.FieldByName("ref"); f == nil || f.Offset != 1 {
		t.Fatalf("ref field offset wrong: %+v", f)
	}
	if m := key.MethodByName("equals"); m == nil || m.VSlot < 0 {
		t.Fatalf("equals should have a vtable slot: %+v", m)
	}
	if m := key.MethodByName("<init>"); m == nil || m.MaxStack < 2 {
		t.Fatalf("<init> max stack wrong: %+v", m)
	}
	// Method IDs are dense over the whole program.
	for i, m := range p.Methods {
		if m.ID != i {
			t.Fatalf("method %s has ID %d at index %d", m.QualifiedName(), m.ID, i)
		}
	}
}

func TestInheritanceAndVTables(t *testing.T) {
	a := NewAssembler()
	base := a.Class("Base", "")
	base.Field("x", KindInt)
	bm := base.Method("get", nil, KindInt, false)
	bm.Const(1).ReturnValue()
	sub := a.Class("Sub", "Base")
	sub.Field("y", KindInt)
	sm := sub.Method("get", nil, KindInt, false)
	sm.Const(2).ReturnValue()
	other := sub.Method("other", nil, KindInt, false)
	other.Const(3).ReturnValue()
	a.Class("Leaf", "Sub") // overrides nothing

	p, err := a.Finish("")
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	b, s := p.ClassByName("Base"), p.ClassByName("Sub")
	if !s.IsSubclassOf(b) || s.IsSubclassOf(nil) {
		t.Fatal("IsSubclassOf wrong")
	}
	if b.IsSubclassOf(s) {
		t.Fatal("Base should not be a subclass of Sub")
	}
	if got := s.NumFields(); got != 2 {
		t.Fatalf("Sub has %d flattened fields, want 2", got)
	}
	if f := s.FieldByName("x"); f == nil || f.Offset != 0 {
		t.Fatalf("inherited field x: %+v", f)
	}
	if f := s.FieldByName("y"); f == nil || f.Offset != 1 {
		t.Fatalf("own field y: %+v", f)
	}
	bg, sg := b.MethodByName("get"), s.MethodByName("get")
	if bg.VSlot != sg.VSlot {
		t.Fatalf("override should share a vtable slot: %d vs %d", bg.VSlot, sg.VSlot)
	}
	if s.VTable[sg.VSlot] != sg {
		t.Fatal("Sub's vtable should hold the override")
	}
	if b.VTable[bg.VSlot] != bg {
		t.Fatal("Base's vtable should hold the original")
	}
	om := s.MethodByName("other")
	if om.VSlot == sg.VSlot || om.VSlot < 0 {
		t.Fatalf("other should get a fresh slot, got %d", om.VSlot)
	}
	// The CHA target set is the same whichever override names the slot, holds
	// each implementation once, and a slot first declared in Sub has no
	// target in Base.
	for _, decl := range []*Method{bg, sg} {
		if ts := p.VirtualTargets(decl); len(ts) != 2 || ts[0] != bg || ts[1] != sg {
			t.Fatalf("VirtualTargets(%s) = %v, want [Base.get Sub.get]", decl.QualifiedName(), ts)
		}
	}
	if ts := p.VirtualTargets(om); len(ts) != 1 || ts[0] != om {
		t.Fatalf("VirtualTargets(Sub.other) = %v, want only itself", ts)
	}
}

func TestVerifyRejectsBadCode(t *testing.T) {
	cases := []struct {
		name  string
		build func(a *Assembler)
		want  string
	}{
		{
			name: "stack underflow",
			build: func(a *Assembler) {
				m := a.Class("C", "").Method("m", nil, KindVoid, true)
				m.Pop().Return()
			},
			want: "underflow",
		},
		{
			name: "kind mismatch on add",
			build: func(a *Assembler) {
				m := a.Class("C", "").Method("m", nil, KindVoid, true)
				m.ConstNull().Const(1).Add().Pop().Return()
			},
			want: "expected int",
		},
		{
			name: "inconsistent merge depth",
			build: func(a *Assembler) {
				m := a.Class("C", "").Method("m", []Kind{KindInt}, KindVoid, true)
				m.Load(0).If(CondNE, "deep")
				m.Goto("join")
				m.Label("deep").Const(7)
				m.Label("join").Return()
			},
			// Depending on visit order this is reported either as a depth
			// mismatch or as a return with leftover stack values.
			want: "stack",
		},
		{
			name: "return with wrong kind",
			build: func(a *Assembler) {
				m := a.Class("C", "").Method("m", nil, KindRef, true)
				m.Const(1).ReturnValue()
			},
			want: "expected ref",
		},
		{
			name: "missing terminator",
			build: func(a *Assembler) {
				m := a.Class("C", "").Method("m", nil, KindVoid, true)
				m.Const(1).Pop()
			},
			// Falls off the end: the last pc flows to an out-of-range pc.
			want: "out of range",
		},
		{
			name: "out of range local",
			build: func(a *Assembler) {
				m := a.Class("C", "").Method("m", nil, KindVoid, true)
				m.Load(3).Pop().Return()
			},
			want: "out-of-range slot",
		},
		{
			name: "store kind mismatch",
			build: func(a *Assembler) {
				m := a.Class("C", "").Method("m", nil, KindVoid, true)
				s := m.NewLocal(KindRef)
				m.Const(1).Store(s).Return()
			},
			want: "expected ref",
		},
		{
			name: "nonempty stack at return",
			build: func(a *Assembler) {
				m := a.Class("C", "").Method("m", nil, KindVoid, true)
				m.Const(1).Return()
			},
			want: "values on stack",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAssembler()
			tc.build(a)
			_, err := a.Finish("")
			if err == nil {
				t.Fatal("Finish succeeded, want verification error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestVerifyMaxStack(t *testing.T) {
	a := NewAssembler()
	m := a.Class("C", "").Method("m", nil, KindInt, true)
	m.Const(1).Const(2).Const(3).Add().Add().ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	got := p.ClassByName("C").MethodByName("m").MaxStack
	if got != 3 {
		t.Fatalf("MaxStack = %d, want 3", got)
	}
}

func TestAssemblerErrors(t *testing.T) {
	t.Run("undefined label", func(t *testing.T) {
		a := NewAssembler()
		m := a.Class("C", "").Method("m", nil, KindVoid, true)
		m.Goto("nowhere").Return()
		if _, err := a.Finish(""); err == nil || !strings.Contains(err.Error(), "undefined label") {
			t.Fatalf("want undefined label error, got %v", err)
		}
	})
	t.Run("duplicate label", func(t *testing.T) {
		a := NewAssembler()
		m := a.Class("C", "").Method("m", nil, KindVoid, true)
		m.Label("l").Label("l").Return()
		if _, err := a.Finish(""); err == nil || !strings.Contains(err.Error(), "duplicate label") {
			t.Fatalf("want duplicate label error, got %v", err)
		}
	})
	t.Run("unknown super", func(t *testing.T) {
		a := NewAssembler()
		a.Class("C", "Nope").Method("m", nil, KindVoid, true).Return()
		if _, err := a.Finish(""); err == nil || !strings.Contains(err.Error(), "unknown class") {
			t.Fatalf("want unknown class error, got %v", err)
		}
	})
	t.Run("duplicate class", func(t *testing.T) {
		a := NewAssembler()
		a.Class("C", "").Method("m", nil, KindVoid, true).Return()
		a.Class("C", "").Method("m", nil, KindVoid, true).Return()
		if _, err := a.Finish(""); err == nil || !strings.Contains(err.Error(), "duplicate class") {
			t.Fatalf("want duplicate class error, got %v", err)
		}
	})
	t.Run("bad entry point", func(t *testing.T) {
		a := NewAssembler()
		a.Class("C", "").Method("m", nil, KindVoid, false).Return()
		if _, err := a.Finish("C.m"); err == nil || !strings.Contains(err.Error(), "must be static") {
			t.Fatalf("want static entry error, got %v", err)
		}
	})
	t.Run("inheritance cycle", func(t *testing.T) {
		a := NewAssembler()
		a.Class("A", "B")
		a.Class("B", "A")
		if _, err := a.Finish(""); err == nil || !strings.Contains(err.Error(), "cycle") {
			t.Fatalf("want cycle error, got %v", err)
		}
	})
}

func TestCondHelpers(t *testing.T) {
	conds := []Cond{CondEQ, CondNE, CondLT, CondLE, CondGT, CondGE}
	pairs := [][2]int64{{0, 0}, {1, 0}, {0, 1}, {-5, 5}, {7, 7}}
	for _, c := range conds {
		if c.Negate().Negate() != c {
			t.Fatalf("double negation of %s changed it", c)
		}
		for _, p := range pairs {
			if c.EvalInt(p[0], p[1]) == c.Negate().EvalInt(p[0], p[1]) {
				t.Fatalf("%s and its negation agree on %v", c, p)
			}
		}
	}
}

func TestDisassemble(t *testing.T) {
	p := buildKeyProgram(t)
	text := DisassembleProgram(p)
	for _, want := range []string{
		"class Key", "getfield Key.idx", "invokevirtual Key.equals(ref) int",
		"monitorenter", "new Key", "getstatic Cache.cacheKey",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, text)
		}
	}
}

func TestInstanceSize(t *testing.T) {
	p := buildKeyProgram(t)
	key := p.ClassByName("Key")
	if got := key.InstanceSize(); got != 16+2*8 {
		t.Fatalf("InstanceSize = %d", got)
	}
	if got := ArraySize(10); got != 24+80 {
		t.Fatalf("ArraySize(10) = %d", got)
	}
}

func TestSideEffectClassification(t *testing.T) {
	effectful := []Op{OpPutField, OpPutStatic, OpArrayStore, OpInvokeStatic,
		OpInvokeDirect, OpInvokeVirtual, OpMonitorEnter, OpMonitorExit, OpPrint, OpRand}
	pure := []Op{OpAdd, OpConst, OpLoad, OpStore, OpGetField, OpGetStatic,
		OpArrayLoad, OpNew, OpNewArray, OpCmp, OpInstanceOf}
	for _, op := range effectful {
		if !op.HasSideEffect() {
			t.Errorf("%s should have a side effect", op)
		}
	}
	for _, op := range pure {
		if op.HasSideEffect() {
			t.Errorf("%s should not have a side effect", op)
		}
	}
}
