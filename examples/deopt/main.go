// Deopt demonstrates the interplay of speculation, Partial Escape
// Analysis, and deoptimization (paper §2 and §5.5): the JIT prunes a
// branch the profile says is never taken, which lets PEA virtualize an
// object whose only escape sat in that branch. When the "impossible"
// branch finally executes, compiled code deoptimizes: the interpreter
// frames are rebuilt from the FrameState and the scalar-replaced object is
// materialized from its VirtualObjectState — then the method is
// invalidated and recompiled without the wrong assumption.
//
//	go run ./examples/deopt
package main

import (
	"fmt"
	"log"

	"pea/internal/mj"
	"pea/internal/rt"
	"pea/internal/vm"
)

const program = `
class Request {
	int id;
	int size;
	Request(int id, int size) { this.id = id; this.size = size; }
}
class Audit {
	static Request last;   // oversized requests are retained for auditing
	static int audited;
}
class Main {
	static int handle(int id, int size) {
		Request r = new Request(id, size);
		if (size > 1000000) {
			// During warmup this branch never runs: the JIT prunes it
			// to a deoptimization point, and the Request becomes fully
			// virtual.
			Audit.last = r;
			Audit.audited = Audit.audited + 1;
		}
		return r.id + r.size;
	}
	static void main() { print(handle(1, 2)); }
}
`

func main() {
	prog, err := mj.Compile(program, "Main.main")
	if err != nil {
		log.Fatal(err)
	}
	machine := vm.New(prog, vm.Options{
		EA:               vm.EAPartial,
		Speculate:        true,
		CompileThreshold: 10,
	})
	handle := prog.ClassByName("Main").MethodByName("handle")

	call := func(id, size int64) int64 {
		v, err := machine.Call(handle, []rt.Value{rt.IntValue(id), rt.IntValue(size)})
		if err != nil {
			log.Fatal(err)
		}
		return v.I
	}

	// Warm up with small requests only: the audit branch is never taken.
	for i := int64(0); i < 40; i++ {
		call(i, i*10)
	}
	fmt.Printf("after warmup: %d allocations, %d deopts, %d compiled methods\n",
		machine.Env.Stats.Allocations, machine.Env.Stats.Deopts, machine.Stats().CompiledMethods)

	before := machine.Env.Stats.Allocations
	for i := int64(0); i < 1000; i++ {
		call(i, 500)
	}
	fmt.Printf("1000 hot calls performed %d allocations (Request is fully virtual)\n",
		machine.Env.Stats.Allocations-before)

	// Now an oversized request arrives: the pruned branch is taken.
	got := call(99, 5_000_000)
	fmt.Printf("\noversized request returned %d\n", got)
	fmt.Printf("deoptimizations: %d, invalidated methods: %d, materializations: %d\n",
		machine.Env.Stats.Deopts, machine.Stats().InvalidatedMethods, machine.Env.Stats.Materializations)

	audit := machine.Env.GetStatic(prog.ClassByName("Audit").StaticByName("last"))
	if audit.Ref == nil {
		log.Fatal("audit record missing after deopt")
	}
	fmt.Printf("audit record rebuilt from the frame state: Request{id=%d size=%d}\n",
		audit.Ref.Fields[0].I, audit.Ref.Fields[1].I)

	// The method recompiles without speculation; oversized requests now
	// run in compiled code without further deopts.
	for i := int64(0); i < 100; i++ {
		call(i, 5_000_000)
	}
	fmt.Printf("after recompilation: deopts still %d, audited=%d\n",
		machine.Env.Stats.Deopts,
		machine.Env.GetStatic(prog.ClassByName("Audit").StaticByName("audited")).I)
}
