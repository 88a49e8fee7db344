// Quickstart: compile a MiniJava program and run it on the VM with Partial
// Escape Analysis, comparing allocation behaviour against the plain JIT.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"pea/internal/mj"
	"pea/internal/rt"
	"pea/internal/vm"
)

const program = `
class Point {
	int x;
	int y;
	Point(int x, int y) { this.x = x; this.y = y; }
	int dist2(Point o) {
		int dx = x - o.x;
		int dy = y - o.y;
		return dx * dx + dy * dy;
	}
}
class Main {
	static int run(int n) {
		int acc = 0;
		for (int i = 0; i < n; i++) {
			// Two temporary points per iteration; they never escape,
			// so Partial Escape Analysis removes both allocations.
			Point a = new Point(i, i + 1);
			Point b = new Point(2 * i, i - 3);
			acc = acc + a.dist2(b);
		}
		return acc;
	}
	static void main() { print(run(1000)); }
}
`

func run(mode vm.EAMode) *vm.VM {
	prog, err := mj.Compile(program, "Main.main")
	if err != nil {
		log.Fatal(err)
	}
	machine := vm.New(prog, vm.Options{EA: mode, CompileThreshold: 5})
	// Warm up: the first runs interpret and profile, then the JIT
	// compiles Main.run with the selected escape analysis.
	for i := 0; i < 10; i++ {
		if _, err := machine.Run(); err != nil {
			log.Fatal(err)
		}
	}
	// Reset counters so the numbers below show the compiled steady state.
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

	fmt.Println("program output (last run):", peavm.Env.Output[len(peavm.Env.Output)-1])
	fmt.Printf("%-22s %15s %15s\n", "", "JIT without EA", "JIT with PEA")
	fmt.Printf("%-22s %15d %15d\n", "allocations", base.Env.Stats.Allocations, peavm.Env.Stats.Allocations)
	fmt.Printf("%-22s %15d %15d\n", "allocated bytes", base.Env.Stats.AllocatedBytes, peavm.Env.Stats.AllocatedBytes)
	if peavm.Env.Stats.Allocations < base.Env.Stats.Allocations {
		fmt.Println("\nPartial Escape Analysis removed the per-iteration Point allocations.")
	}
}
