package bench_test

import (
	"strings"
	"testing"

	"pea/benchmarks"
	"pea/internal/bc"
	"pea/internal/mj"
	"pea/internal/vm"
)

// The window the steady-pea and steady-noea workloads of peaperf count guest
// allocations over at scale 1: 50 untimed warm-up ops, then 8 rounds of 15
// batches of 20 ops.
const (
	steadyWarmupOps = 50
	steadyTimedOps  = 8 * 15 * 20
)

// steadyGolden is one frozen steady program's exact guest allocations and
// allocated bytes over the timed window, under PEA and without escape
// analysis. Divided by steadyTimedOps they are the per-program
// guest_allocs_per_op and guest_kb_per_op (bytes / 1024) peaperf reports.
type steadyGolden struct {
	name                  string
	peaAllocs, peaBytes   int64
	noEAAllocs, noEABytes int64
}

var steadyGoldens = []steadyGolden{
	{"factorie", 810699, 35619168, 2030400, 74649600},
	{"specs", 583213, 85478816, 1929600, 128563200},
	{"specjbb2005", 1355437, 124013984, 2131200, 148838400},
	{"tomcat", 1671853, 100270496, 1742400, 102528000},
	{"fop", 1730822, 89946304, 1872000, 94464000},
	{"sunflow", 1157790, 60089280, 1612800, 74649600},
	{"scalac", 1108521, 57360672, 1440000, 67968000},
	{"jython", 1429976, 71679232, 1641600, 78451200},
	{"avrora", 1728000, 76800000, 1728000, 76800000},
	{"luindex", 768000, 70656000, 768000, 70656000},
	{"callheavy", 0, 0, 4800000, 153600000},
	{"trycatch", 4800, 115200, 484800, 11635200},
}

// TestSteadyAllocationsGolden pins, program by program, the guest counters
// of the twelve frozen steady programs (benchmarks/programs) under PEA and
// without escape analysis, driven as peaperf's steady workloads drive them:
// the closure backend, threshold 10, the program's frozen seed, its set-up,
// the warm-up ops, then the timed ops. The counters are exact, so a
// regression in one program fails here instead of hiding inside the
// twelve-program mean the benchmark gates on.
func TestSteadyAllocationsGolden(t *testing.T) {
	man, err := benchmarks.Load("../../benchmarks/programs")
	if err != nil {
		t.Fatal(err)
	}
	progs := map[string]*benchmarks.Program{}
	for i := range man.Programs {
		progs[man.Programs[i].Name] = &man.Programs[i]
	}
	for _, want := range steadyGoldens {
		p := progs[want.name]
		if p == nil {
			t.Fatalf("%s is not in the manifest", want.name)
		}
		for _, c := range []struct {
			mode          vm.EAMode
			allocs, bytes int64
		}{
			{vm.EAPartial, want.peaAllocs, want.peaBytes},
			{vm.EAOff, want.noEAAllocs, want.noEABytes},
		} {
			t.Run(want.name+"/"+c.mode.String(), func(t *testing.T) {
				t.Parallel()
				allocs, bytes := steadyCounters(t, p, c.mode)
				if allocs != c.allocs || bytes != c.bytes {
					t.Errorf("%d allocations, %d bytes (%.4f / %.4f KB per op); golden %d, %d (%.4f / %.4f)",
						allocs, bytes, perOp(allocs), perOp(bytes)/1024,
						c.allocs, c.bytes, perOp(c.allocs), perOp(c.bytes)/1024)
				}
			})
		}
	}
}

func perOp(n int64) float64 { return float64(n) / steadyTimedOps }

// steadyCounters runs p under mode and returns the guest allocations and
// allocated bytes of its timed window.
func steadyCounters(t *testing.T, p *benchmarks.Program, mode vm.EAMode) (allocs, bytes int64) {
	prog, err := mj.Compile(p.Source, "Main.main")
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.New(prog, vm.Options{EA: mode, Backend: vm.BackendClosure, CompileThreshold: 10, Seed: p.Seed})
	defer machine.Close()
	method := func(qualified string) *bc.Method {
		cls, name, _ := strings.Cut(qualified, ".")
		if c := prog.ClassByName(cls); c != nil {
			if m := c.MethodByName(name); m != nil {
				return m
			}
		}
		t.Fatalf("%s: no method %s", p.Name, qualified)
		return nil
	}
	call := func(m *bc.Method) {
		if _, err := machine.Call(m, nil); err != nil {
			t.Fatalf("%s: %s: %v", p.Name, m.QualifiedName(), err)
		}
		machine.Env.Output = machine.Env.Output[:0]
	}
	if p.Setup != "" {
		call(method(p.Setup))
	}
	op := method(p.Op)
	for i := 0; i < steadyWarmupOps; i++ {
		call(op)
	}
	machine.DrainJIT()
	before := machine.Env.Stats
	for i := 0; i < steadyTimedOps; i++ {
		call(op)
	}
	d := machine.Env.Stats.Sub(before)
	if n := len(machine.FailedCompilations()); n > 0 {
		t.Fatalf("%s: %d methods failed to compile", p.Name, n)
	}
	return d.Allocations, d.AllocatedBytes
}
