// Scalaiter models the Scala-compiled abstraction layers that make the
// ScalaDaCapo suite benefit so much from Partial Escape Analysis (the
// paper's factorie benchmark improves 33%): a fold over a range expressed
// with iterator, closure-like, and boxed-value objects. All of these are
// per-step temporaries; after inlining, PEA scalar-replaces every one of
// them, turning the abstract pipeline into a plain loop.
//
//	go run ./examples/scalaiter
package main

import (
	"fmt"
	"log"

	"pea/internal/mj"
	"pea/internal/rt"
	"pea/internal/vm"
)

const program = `
// What scalac would emit for:  (0 until n).map(_ * 2).filter(_ % 3 != 0).sum
class IntBox {
	int value;
	IntBox(int value) { this.value = value; }
}
class Range {
	int lo;
	int hi;
	Range(int lo, int hi) { this.lo = lo; this.hi = hi; }
	RangeIter iterator() { return new RangeIter(lo, hi); }
}
class RangeIter {
	int cur;
	int hi;
	RangeIter(int cur, int hi) { this.cur = cur; this.hi = hi; }
	boolean hasNext() { return cur < hi; }
	IntBox next() {
		IntBox b = new IntBox(cur);
		cur = cur + 1;
		return b;
	}
}
class MapFn {
	IntBox apply(IntBox x) { return new IntBox(x.value * 2); }
}
class FilterFn {
	boolean apply(IntBox x) { return x.value % 3 != 0; }
}
class Main {
	static int fold(int n) {
		Range r = new Range(0, n);
		RangeIter it = r.iterator();
		MapFn f = new MapFn();
		FilterFn p = new FilterFn();
		int sum = 0;
		while (it.hasNext()) {
			IntBox mapped = f.apply(it.next());
			if (p.apply(mapped)) {
				sum = sum + mapped.value;
			}
		}
		return sum;
	}
	static void main() { print(fold(500)); }
}
`

func run(mode vm.EAMode) *vm.VM {
	prog, err := mj.Compile(program, "Main.main")
	if err != nil {
		log.Fatal(err)
	}
	machine := vm.New(prog, vm.Options{EA: mode, CompileThreshold: 5})
	// Warm up, then reset counters so the numbers show the compiled
	// steady state.
	for i := 0; i < 10; i++ {
		if _, err := machine.Run(); err != nil {
			log.Fatal(err)
		}
	}
	machine.Env.Stats = rt.Stats{}
	for i := 0; i < 10; i++ {
		if _, err := machine.Run(); err != nil {
			log.Fatal(err)
		}
	}
	return machine
}

func main() {
	base := run(vm.EAOff)
	peavm := run(vm.EAPartial)

	b, p := base.Env.Stats, peavm.Env.Stats
	fmt.Println("result:", peavm.Env.Output[0])
	fmt.Printf("%-20s %12s %12s %9s\n", "", "without PEA", "with PEA", "delta")
	pct := func(a, c int64) float64 {
		if a == 0 {
			return 0
		}
		return float64(c-a) / float64(a) * 100
	}
	fmt.Printf("%-20s %12d %12d %+8.1f%%\n", "allocations", b.Allocations, p.Allocations, pct(b.Allocations, p.Allocations))
	fmt.Printf("%-20s %12d %12d %+8.1f%%\n", "allocated bytes", b.AllocatedBytes, p.AllocatedBytes, pct(b.AllocatedBytes, p.AllocatedBytes))
	fmt.Println("\nEvery IntBox, the iterator, the range and both function objects are")
	fmt.Println("per-call or per-step temporaries: after inlining, Partial Escape Analysis")
	fmt.Println("removes essentially all of them — the paper's ScalaDaCapo story in miniature.")
}
