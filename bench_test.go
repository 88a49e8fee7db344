// Package pea's root benchmark harness: one testing.B benchmark per
// artifact of the paper's evaluation. BenchmarkTable1* regenerate the rows
// of Table 1 (wall-clock per benchmark iteration under each configuration,
// with allocation metrics attached via ReportMetric), and
// BenchmarkComparison reproduces §6.2. Run with
//
//	go test -bench=. -benchmem
package pea

import (
	"fmt"
	"testing"

	"pea/internal/bench"
	"pea/internal/build"
	"pea/internal/mj"
	"pea/internal/opt"
	"pea/internal/pea"
	"pea/internal/vm"
)

// setupWorkload compiles a workload and warms the VM to steady state.
func setupWorkload(b *testing.B, w bench.WorkloadSpec, mode vm.EAMode) (*vm.VM, func()) {
	b.Helper()
	prog, err := mj.Compile(w.Source(), "Main.main")
	if err != nil {
		b.Fatal(err)
	}
	machine := vm.New(prog, vm.Options{EA: mode, CompileThreshold: 10, Seed: 7})
	setup := prog.ClassByName("Store").MethodByName("setup")
	iter := prog.ClassByName("Bench").MethodByName("iteration")
	if _, err := machine.Call(setup, nil); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if _, err := machine.Call(iter, nil); err != nil {
			b.Fatal(err)
		}
	}
	return machine, func() {
		if _, err := machine.Call(iter, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSuite runs every workload of a suite under the given mode, reporting
// guest allocations and bytes per benchmark iteration.
func benchSuite(b *testing.B, suite string, mode vm.EAMode) {
	for _, w := range bench.BySuite(suite) {
		w := w
		b.Run(fmt.Sprintf("%s/%s", w.Name, mode), func(b *testing.B) {
			machine, iterate := setupWorkload(b, w, mode)
			startAllocs := machine.Env.Stats.Allocations
			startBytes := machine.Env.Stats.AllocatedBytes
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				iterate()
			}
			b.StopTimer()
			n := float64(b.N)
			b.ReportMetric(float64(machine.Env.Stats.Allocations-startAllocs)/n, "allocs/iter")
			b.ReportMetric(float64(machine.Env.Stats.AllocatedBytes-startBytes)/n, "heapB/iter")
		})
	}
}

// BenchmarkTable1DaCapo regenerates the DaCapo block of Table 1: run each
// workload without and with Partial Escape Analysis and compare ns/op and
// the allocs/iter metric between the paired sub-benchmarks.
func BenchmarkTable1DaCapo(b *testing.B) {
	benchSuite(b, "dacapo", vm.EAOff)
	benchSuite(b, "dacapo", vm.EAPartial)
}

// BenchmarkTable1Scala regenerates the ScalaDaCapo block of Table 1.
func BenchmarkTable1Scala(b *testing.B) {
	benchSuite(b, "scaladacapo", vm.EAOff)
	benchSuite(b, "scaladacapo", vm.EAPartial)
}

// BenchmarkTable1SpecJBB regenerates the SPECjbb2005 row of Table 1.
func BenchmarkTable1SpecJBB(b *testing.B) {
	benchSuite(b, "specjbb", vm.EAOff)
	benchSuite(b, "specjbb", vm.EAPartial)
}

// BenchmarkComparisonEAvsPEA reproduces §6.2: the flow-insensitive
// baseline vs Partial Escape Analysis on every suite.
func BenchmarkComparisonEAvsPEA(b *testing.B) {
	for _, suite := range bench.SuiteNames() {
		benchSuite(b, suite, vm.EAFlowInsensitive)
		benchSuite(b, suite, vm.EAPartial)
	}
}

// listing1 is the paper's running example (Listings 1-6) used by the
// microbenchmarks below.
const listing1 = `
class Key {
	int idx;
	Key(int idx) { this.idx = idx; }
	boolean equalsKey(Key other) {
		synchronized (this) {
			return other != null && idx == other.idx;
		}
	}
}
class Cache {
	static Key cacheKey;
	static int cacheValue;
}
class Main {
	static int getValue(int idx) {
		Key key = new Key(idx);
		if (key.equalsKey(Cache.cacheKey)) {
			return Cache.cacheValue;
		} else {
			Cache.cacheKey = key;
			Cache.cacheValue = idx * 31;
			return Cache.cacheValue;
		}
	}
	static int run() {
		int s = 0;
		for (int i = 0; i < 400; i++) { s += getValue(i / 16); }
		return s;
	}
	static void main() { print(run()); }
}
`

// BenchmarkListing4CacheKey measures the paper's running example under the
// three JIT configurations (the microbenchmark behind Listings 4-6).
func BenchmarkListing4CacheKey(b *testing.B) {
	for _, mode := range []vm.EAMode{vm.EAOff, vm.EAFlowInsensitive, vm.EAPartial} {
		mode := mode
		b.Run(mode.String(), func(b *testing.B) {
			prog, err := mj.Compile(listing1, "Main.main")
			if err != nil {
				b.Fatal(err)
			}
			machine := vm.New(prog, vm.Options{EA: mode, CompileThreshold: 5})
			run := prog.ClassByName("Main").MethodByName("run")
			for i := 0; i < 10; i++ {
				if _, err := machine.Call(run, nil); err != nil {
					b.Fatal(err)
				}
			}
			start := machine.Env.Stats.Allocations
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := machine.Call(run, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			n := float64(b.N)
			b.ReportMetric(float64(machine.Env.Stats.Allocations-start)/n, "allocs/iter")
		})
	}
}

// BenchmarkPEACompilation measures the analysis itself: building,
// inlining, and running Partial Escape Analysis over the cache-key method
// (the compile-time cost of the paper's technique).
func BenchmarkPEACompilation(b *testing.B) {
	prog, err := mj.Compile(listing1, "Main.main")
	if err != nil {
		b.Fatal(err)
	}
	m := prog.ClassByName("Main").MethodByName("getValue")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := build.Build(m)
		if err != nil {
			b.Fatal(err)
		}
		pipe := &opt.Pipeline{Phases: []opt.Phase{
			&opt.Inliner{BuildGraph: build.Build, Program: prog},
			opt.Canonicalize{}, opt.SimplifyCFG{}, opt.GVN{}, opt.DCE{},
		}}
		if err := pipe.Run(g); err != nil {
			b.Fatal(err)
		}
		if _, err := pea.Run(g, pea.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpreterVsJIT quantifies the tiered-execution gap the warmup
// relies on.
func BenchmarkInterpreterVsJIT(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opts vm.Options
	}{
		{"interpreter", vm.Options{Interpret: true}},
		{"jit-pea", vm.Options{EA: vm.EAPartial, CompileThreshold: 3}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			prog, err := mj.Compile(listing1, "Main.main")
			if err != nil {
				b.Fatal(err)
			}
			machine := vm.New(prog, cfg.opts)
			run := prog.ClassByName("Main").MethodByName("run")
			for i := 0; i < 5; i++ {
				if _, err := machine.Call(run, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := machine.Call(run, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
