// Package pea's root microbenchmarks: the paper's running example (Listings
// 1-6) under each JIT configuration, the compile-time cost of the analysis,
// and the interpreter-to-compiled gap the warm-up relies on. Table 1, §6.1
// and §6.2 are not here: peaperf (benchmarks/) measures their wall clock and
// internal/bench's tests pin their exact counters. Run with
//
//	go test -bench=. -benchmem -run xxx .
package pea

import (
	"testing"

	"pea/internal/mj"
	"pea/internal/vm"
)

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
			machine := vm.New(prog, vm.Options{EA: mode, Backend: vm.BackendClosure, CompileThreshold: 5})
			defer machine.Close()
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

// BenchmarkPEACompilation measures the compile-time cost of the paper's
// technique: one vm.Compile of the cache-key method on a PEA VM — build,
// inlining and cleanup, Partial Escape Analysis and the post-PEA cleanup.
func BenchmarkPEACompilation(b *testing.B) {
	prog, err := mj.Compile(listing1, "Main.main")
	if err != nil {
		b.Fatal(err)
	}
	m := prog.ClassByName("Main").MethodByName("getValue")
	machine := vm.New(prog, vm.Options{EA: vm.EAPartial})
	defer machine.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := machine.Compile(m); err != nil {
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
		{"jit-pea", vm.Options{EA: vm.EAPartial, Backend: vm.BackendClosure, CompileThreshold: 3}},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			prog, err := mj.Compile(listing1, "Main.main")
			if err != nil {
				b.Fatal(err)
			}
			machine := vm.New(prog, cfg.opts)
			defer machine.Close()
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
