package rt

import (
	"math"
	"testing"

	"pea/internal/bc"
)

// TestEvalArithJVMEdgeCases pins the JVM's integer arithmetic corner cases
// (JLS §15.17): MinInt64/-1 overflows back to MinInt64 without trapping,
// MinInt64%-1 is 0, the remainder takes the dividend's sign, and shift
// distances are masked to their low six bits. Go's evaluation rules
// guarantee each of these, and every engine and the canonicalizer's constant
// folder evaluate through this function (vm.TestArithEdgeCasesAgreeAcrossTiers
// asserts folder against executor).
func TestEvalArithJVMEdgeCases(t *testing.T) {
	min, max := int64(math.MinInt64), int64(math.MaxInt64)
	cases := []struct {
		name string
		op   bc.Op
		a, b int64
		want int64
	}{
		{"min-div-minus1-overflow", bc.OpDiv, min, -1, min},
		{"min-rem-minus1-zero", bc.OpRem, min, -1, 0},
		{"rem-sign-follows-dividend-neg", bc.OpRem, -7, 3, -1},
		{"rem-sign-follows-dividend-pos", bc.OpRem, 7, -3, 1},
		{"div-trunc-toward-zero-neg", bc.OpDiv, -7, 2, -3},
		{"div-trunc-toward-zero-pos", bc.OpDiv, 7, -2, -3},
		{"shl-masked-64", bc.OpShl, 1, 64, 1},
		{"shl-masked-65", bc.OpShl, 1, 65, 2},
		{"shl-masked-negative-distance", bc.OpShl, 1, -1, min}, // -1&63 = 63
		{"shr-masked-64", bc.OpShr, max, 64, max},
		{"shr-arithmetic-sign-extend", bc.OpShr, -8, 1, -4},
		{"ushr-zero-extend", bc.OpUShr, -1, 1, max},
		{"ushr-masked-64", bc.OpUShr, -1, 64, -1},
		{"add-overflow-wraps", bc.OpAdd, max, 1, min},
		{"sub-overflow-wraps", bc.OpSub, min, 1, max},
		{"mul-overflow-wraps", bc.OpMul, max, 2, -2},
	}
	for _, c := range cases {
		got, why := Arith(c.op, c.a, c.b)
		if why != "" {
			t.Errorf("%s: unexpected trap %q", c.name, why)
			continue
		}
		if got != c.want {
			t.Errorf("%s: Arith(%v, %d, %d) = %d, want %d",
				c.name, c.op, c.a, c.b, got, c.want)
		}
	}
	for _, op := range []bc.Op{bc.OpDiv, bc.OpRem} {
		if _, why := Arith(op, 1, 0); why != "division by zero" {
			t.Errorf("%v by zero: reason %q", op, why)
		}
	}
}
