package rt

import (
	"testing"

	"pea/internal/bc"
)

// opsProg is the kernel table's program: Sub extends Base and overrides its
// virtual method f; Base has an int field v and a ref field r.
func opsProg(t *testing.T) (p *bc.Program, base, sub *bc.Class) {
	t.Helper()
	a := bc.NewAssembler()
	b := a.Class("Base", "")
	b.Field("v", bc.KindInt)
	b.Field("r", bc.KindRef)
	b.Method("f", nil, bc.KindInt, false).Const(1).ReturnValue()
	s := a.Class("Sub", "Base")
	s.Method("f", nil, bc.KindInt, false).Const(2).ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	return p, p.ClassByName("Base"), p.ClassByName("Sub")
}

// TestKernelOps pins every kernel operation against literals: its result,
// the exact trap reason of every fault it can raise (the strings all three
// engines report, defined nowhere else), and its Env.Stats delta — a
// faulting operation counts nothing and changes nothing.
func TestKernelOps(t *testing.T) {
	p, base, sub := opsProg(t)
	v, r := base.FieldByName("v"), base.FieldByName("r")
	f := base.MethodByName("f")

	type outcome struct {
		got   any // result, compared with ==
		why   string
		stats Stats
	}
	cases := []struct {
		name string
		run  func(e *Env) (got any, why string)
		want outcome
	}{
		{"div", func(e *Env) (any, string) { return ret(Div(7, 2)) }, outcome{got: int64(3)}},
		{"div-by-zero", func(e *Env) (any, string) { return ret(Div(7, 0)) },
			outcome{got: int64(0), why: "division by zero"}},
		{"rem", func(e *Env) (any, string) { return ret(Rem(-7, 3)) }, outcome{got: int64(-1)}},
		{"rem-by-zero", func(e *Env) (any, string) { return ret(Rem(7, 0)) },
			outcome{got: int64(0), why: "division by zero"}},
		{"arith-div-by-zero", func(e *Env) (any, string) { return ret(Arith(bc.OpDiv, 1, 0)) },
			outcome{got: int64(0), why: "division by zero"}},
		{"arith-rem-by-zero", func(e *Env) (any, string) { return ret(Arith(bc.OpRem, 1, 0)) },
			outcome{got: int64(0), why: "division by zero"}},
		{"arith-not-arithmetic", func(e *Env) (any, string) { return ret(Arith(bc.OpNeg, 1, 0)) },
			outcome{got: int64(0), why: "not an arithmetic op: neg"}},
		{"shifts-mask-six-bits", func(e *Env) (any, string) {
			return [3]int64{Shl(1, 65), Shr(-8, 65), UShr(-1, 127)}, ""
		}, outcome{got: [3]int64{2, -4, 1}}},

		{"loadfield", func(e *Env) (any, string) {
			o := e.AllocObject(base)
			o.Fields[v.Offset] = IntValue(9)
			return ret(e.LoadField(o, v.Offset, v))
		}, outcome{got: IntValue(9), stats: Stats{Allocations: 1, AllocatedBytes: 32, FieldLoads: 1}}},
		{"loadfield-null", func(e *Env) (any, string) { return ret(e.LoadField(nil, v.Offset, v)) },
			outcome{got: Value{}, why: "null dereference in getfield Base.v"}},
		{"storefield", func(e *Env) (any, string) {
			o := e.AllocObject(base)
			why := e.StoreField(o, r.Offset, r, RefValue(o))
			return o.Fields[r.Offset].Ref == o, why
		}, outcome{got: true, stats: Stats{Allocations: 1, AllocatedBytes: 32, FieldStores: 1}}},
		{"storefield-null", func(e *Env) (any, string) { return nil, e.StoreField(nil, r.Offset, r, Null) },
			outcome{why: "null dereference in putfield Base.r"}},

		{"element", func(e *Env) (any, string) {
			arr, _ := e.NewArray(bc.KindInt, 3)
			el, why := Element(arr, 2, bc.OpArrayStore)
			return el == &arr.Fields[2], why
		}, outcome{got: true, stats: Stats{Allocations: 1, AllocatedBytes: 48}}},
		{"arrayload-null", func(e *Env) (any, string) { return ret(Element(nil, 0, bc.OpArrayLoad)) },
			outcome{got: (*Value)(nil), why: "null dereference in arrayload"}},
		{"arraystore-null", func(e *Env) (any, string) { return ret(Element(nil, 0, bc.OpArrayStore)) },
			outcome{got: (*Value)(nil), why: "null dereference in arraystore"}},
		{"element-past-end", func(e *Env) (any, string) {
			return ret(Element(&Object{Fields: make([]Value, 3)}, 3, bc.OpArrayLoad))
		}, outcome{got: (*Value)(nil), why: "array index 3 out of range [0,3)"}},
		{"element-negative", func(e *Env) (any, string) {
			return ret(Element(&Object{Fields: make([]Value, 3)}, -1, bc.OpArrayStore))
		}, outcome{got: (*Value)(nil), why: "array index -1 out of range [0,3)"}},
		{"arraylength", func(e *Env) (any, string) {
			return ret(ArrayLength(&Object{Fields: make([]Value, 5)}))
		}, outcome{got: int64(5)}},
		{"arraylength-null", func(e *Env) (any, string) { return ret(ArrayLength(nil)) },
			outcome{got: int64(0), why: "null dereference in arraylen"}},
		{"newarray", func(e *Env) (any, string) {
			arr, why := e.NewArray(bc.KindRef, 2)
			return arr.IsArray() && arr.Len() == 2 && arr.ElemKind == bc.KindRef && arr.Fields[1].IsNull(), why
		}, outcome{got: true, stats: Stats{Allocations: 1, AllocatedBytes: 40}}},
		{"newarray-negative", func(e *Env) (any, string) { return ret(e.NewArray(bc.KindInt, -4)) },
			outcome{got: (*Object)(nil), why: "negative array size -4"}},

		{"instanceof", func(e *Env) (any, string) {
			return [4]bool{
				InstanceOf(&Object{Class: sub}, base),
				InstanceOf(&Object{Class: base}, sub),
				InstanceOf(nil, base),
				InstanceOf(&Object{}, base), // an array
			}, ""
		}, outcome{got: [4]bool{true, false, false, false}}},

		{"lock-unlock", func(e *Env) (any, string) {
			o := &Object{Class: base}
			if why := e.Lock(o); why != "" {
				return nil, why
			}
			held := o.LockDepth
			return held, e.Unlock(o)
		}, outcome{got: 1, stats: Stats{MonitorOps: 2}}},
		{"lock-null", func(e *Env) (any, string) { return nil, e.Lock(nil) },
			outcome{why: "null dereference in monitorenter"}},
		{"unlock-null", func(e *Env) (any, string) { return nil, e.Unlock(nil) },
			outcome{why: "null dereference in monitorexit"}},
		{"unlock-unheld-object", func(e *Env) (any, string) {
			// The serial must not show: PEA changes it.
			o := &Object{Class: sub, Serial: 62}
			why := e.Unlock(o)
			return o.LockDepth, why
		}, outcome{got: 0, why: "monitor exit on unlocked Sub"}},
		{"unlock-unheld-array", func(e *Env) (any, string) {
			return nil, e.Unlock(&Object{ElemKind: bc.KindInt, Serial: 7})
		}, outcome{why: "monitor exit on unlocked array"}},

		{"receiver-virtual", func(e *Env) (any, string) {
			return ret(Receiver(&Object{Class: sub}, f, true))
		}, outcome{got: sub.MethodByName("f")}},
		{"receiver-direct", func(e *Env) (any, string) {
			return ret(Receiver(&Object{Class: sub}, f, false))
		}, outcome{got: f}},
		{"receiver-null", func(e *Env) (any, string) { return ret(Receiver(nil, f, true)) },
			outcome{got: (*bc.Method)(nil), why: "null receiver calling Base.f"}},

		{"thrown", func(e *Env) (any, string) {
			o := &Object{Class: sub, Serial: 5}
			tr := Thrown(o, f, 3)
			return tr.Value == o && tr.Method == f && tr.PC == 3, tr.Reason
		}, outcome{got: true, why: "uncaught exception Sub"}},
		{"thrown-null", func(e *Env) (any, string) {
			tr := Thrown(nil, f, 3)
			return tr.Value == nil && tr.Method == f && tr.PC == 3, tr.Reason
		}, outcome{got: true, why: "null throw"}},

		{"materialize-object", func(e *Env) (any, string) {
			o := e.Materialize(base, bc.KindVoid, 0, 2)
			return o.Class == base && len(o.Fields) == 2 && o.Fields[r.Offset].IsNull() && o.LockDepth == 2, ""
		}, outcome{got: true, stats: Stats{Allocations: 1, AllocatedBytes: 32, MonitorOps: 2, Materializations: 1}}},
		{"materialize-array", func(e *Env) (any, string) {
			o := e.Materialize(nil, bc.KindInt, 3, 0)
			return o.IsArray() && o.Len() == 3 && o.LockDepth == 0, ""
		}, outcome{got: true, stats: Stats{Allocations: 1, AllocatedBytes: 48, Materializations: 1}}},
	}
	for _, c := range cases {
		e := NewEnv(p, 1)
		got, why := c.run(e)
		if got != c.want.got || why != c.want.why {
			t.Errorf("%s: got (%v, %q), want (%v, %q)", c.name, got, why, c.want.got, c.want.why)
		}
		if e.Stats != c.want.stats {
			t.Errorf("%s: stats delta %+v, want %+v", c.name, e.Stats, c.want.stats)
		}
	}
}

// ret boxes a kernel call's (result, reason) pair for the table.
func ret[T any](got T, why string) (any, string) { return got, why }
