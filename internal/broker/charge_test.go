//go:build !race

// The race detector's shadow memory and instrumented allocations would
// distort the heap measurement this file makes.

package broker_test

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/mj"
	"pea/internal/vm"
)

// TestChargeTracksTheHeap calibrates the cache's charge against what its
// entries really keep live. Distinct cold variants of the example programs
// run, as peaserve's tenants do, on VMs sharing one unbounded cache; once
// every VM is closed, the heap the GC still finds live is what the cache
// pins. The charges must sum to within a factor of two of it. The charge
// is meant to err high (a program is charged in full to each of its
// entries), and its per-node multiple for lowered code is set here.
func TestChargeTracksTheHeap(t *testing.T) {
	paths, err := filepath.Glob("../../examples/*.mj")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	var srcs []string
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		srcs = append(srcs, string(src))
	}
	jit := broker.New(broker.Options{Cache: broker.NewCacheSize(0), Check: check.Basic})
	defer jit.Close()
	run := func(tag string, i int) {
		src := srcs[i%len(srcs)] + fmt.Sprintf("\nclass Cold_%s_%d { static int pad() { return %d; } }\n", tag, i, i)
		prog, err := mj.Compile(src, "Main.main")
		if err != nil {
			t.Fatal(err)
		}
		machine := vm.New(prog, vm.Options{EA: vm.EAPartial, Backend: vm.BackendClosure,
			CompileThreshold: 20, CheckLevel: check.Basic, JIT: jit})
		defer machine.Close()
		for r := 0; r < 3; r++ {
			if _, err := machine.Run(); err != nil {
				t.Fatalf("%s: %v", paths[i%len(paths)], err)
			}
		}
		machine.DrainJIT()
	}
	// One round first, so that whatever is allocated once per process is
	// not counted against the cache.
	for i := range srcs {
		run("warmup", i)
	}
	heap := func() int64 {
		// Twice: a sync.Pool's contents survive one collection.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	heap0, bytes0, len0 := heap(), jit.Cache().Bytes(), jit.Cache().Len()
	const variants = 240
	for i := 0; i < variants; i++ {
		run("cold", i)
	}
	live := heap() - heap0
	charged := jit.Cache().Bytes() - bytes0
	entries := jit.Cache().Len() - len0
	ratio := float64(charged) / float64(live)
	t.Logf("%d variants, %d entries: charged %d B (%.1f KB/entry), live %d B (%.1f KB/entry), charge/live %.2f",
		variants, entries, charged, float64(charged)/float64(entries)/1024,
		live, float64(live)/float64(entries)/1024, ratio)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("charge/live = %.2f, want within [0.5, 2]", ratio)
	}
}
