package vm

import (
	"fmt"
	"math"
	"testing"

	"pea/internal/bc"
	"pea/internal/check"
	"pea/internal/rt"
)

// TestArithEdgeCasesAgreeAcrossTiers is the differential check for the JVM
// integer-arithmetic corner cases: for each case the interpreter, the
// compiled executor (operands flowing in as parameters, so no folding), and
// the canonicalizer's constant folder (operands as constants, folded at
// compile time) must produce the same value as rt.Arith.
func TestArithEdgeCasesAgreeAcrossTiers(t *testing.T) {
	min, max := int64(math.MinInt64), int64(math.MaxInt64)
	cases := []struct {
		op   bc.Op
		a, b int64
	}{
		{bc.OpDiv, min, -1},
		{bc.OpRem, min, -1},
		{bc.OpRem, -7, 3},
		{bc.OpRem, 7, -3},
		{bc.OpDiv, -7, 2},
		{bc.OpShl, 1, 64},
		{bc.OpShl, 1, -1},
		{bc.OpShr, -8, 65},
		{bc.OpUShr, -1, 1},
		{bc.OpAdd, max, 1},
		{bc.OpSub, min, 1},
		{bc.OpMul, max, 2},
	}

	a := bc.NewAssembler()
	c := a.Class("C", "")
	for i, cse := range cases {
		// paramOp(a, b) = a op b: reaches the executor as an OpArith.
		pm := c.Method(fmt.Sprintf("p%d", i), []bc.Kind{bc.KindInt, bc.KindInt}, bc.KindInt, true)
		pm.Load(0).Load(1).Arith(cse.op).ReturnValue()
		// constOp() = a op b: canonicalize folds it to a constant.
		cm := c.Method(fmt.Sprintf("c%d", i), nil, bc.KindInt, true)
		cm.Const(cse.a).Const(cse.b).Arith(cse.op).ReturnValue()
	}
	prog, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}

	machine := New(prog, Options{EA: EAPartial, CheckLevel: check.Basic})
	for i, cse := range cases {
		want, why := rt.Arith(cse.op, cse.a, cse.b)
		if why != "" {
			t.Fatalf("case %d: %s", i, why)
		}
		args := []rt.Value{rt.IntValue(cse.a), rt.IntValue(cse.b)}
		pm := prog.ClassByName("C").MethodByName(fmt.Sprintf("p%d", i))
		cm := prog.ClassByName("C").MethodByName(fmt.Sprintf("c%d", i))

		iv, err := machine.Interp.Call(pm, args)
		if err != nil {
			t.Fatalf("case %d interp: %v", i, err)
		}
		pg, err := machine.Compile(pm)
		if err != nil {
			t.Fatalf("case %d compile: %v", i, err)
		}
		ev, err := machine.Engine.Run(pg, args)
		if err != nil {
			t.Fatalf("case %d exec: %v", i, err)
		}
		cg, err := machine.Compile(cm)
		if err != nil {
			t.Fatalf("case %d const compile: %v", i, err)
		}
		cv, err := machine.Engine.Run(cg, nil)
		if err != nil {
			t.Fatalf("case %d const exec: %v", i, err)
		}
		if iv.I != want || ev.I != want || cv.I != want {
			t.Errorf("case %d (%v %d,%d): interp=%d exec=%d folded=%d want=%d",
				i, cse.op, cse.a, cse.b, iv.I, ev.I, cv.I, want)
		}
	}
}
