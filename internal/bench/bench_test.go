package bench

import (
	"slices"
	"testing"

	"pea/internal/mj"
	"pea/internal/rt"
	"pea/internal/vm"
)

// steady is one workload's steady state under one EA mode: the exact guest
// counters of the measured iterations, and everything the program returned
// and printed over the whole run.
type steady struct {
	stats   rt.Stats // delta over the measured iterations
	returns []int64  // Bench.iteration's result, warmup included
	output  []int64
}

type steadyKey struct {
	name string
	mode vm.EAMode
}

// steadyRuns memoizes measure: the shape tests below share one run per
// (workload, mode).
var steadyRuns = map[steadyKey]steady{}

// measure runs Store.setup, 16 warmup iterations (the JIT threshold is 10)
// and 8 measured ones on the closure backend. The counters are exact and
// backend-independent, so every assertion built on them is noise-free.
func measure(t *testing.T, w WorkloadSpec, mode vm.EAMode) steady {
	t.Helper()
	key := steadyKey{w.Name, mode}
	if s, ok := steadyRuns[key]; ok {
		return s
	}
	const warmup, iters = 16, 8
	prog, err := mj.Compile(w.Source(), "Main.main")
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	machine := vm.New(prog, vm.Options{
		EA:               mode,
		Backend:          vm.BackendClosure,
		CompileThreshold: 10,
		Seed:             uint64(len(w.Name))*2654435761 + 7,
		MaxSteps:         2_000_000_000,
	})
	defer machine.Close()
	if _, err := machine.Call(prog.ClassByName("Store").MethodByName("setup"), nil); err != nil {
		t.Fatalf("%s setup: %v", w.Name, err)
	}
	iter := prog.ClassByName("Bench").MethodByName("iteration")
	var s steady
	var start rt.Stats
	for i := 0; i < warmup+iters; i++ {
		if i == warmup {
			for m, cerr := range machine.FailedCompilations() {
				t.Fatalf("%s: compiling %s: %v", w.Name, m.QualifiedName(), cerr)
			}
			start = machine.Env.Stats
		}
		v, err := machine.Call(iter, nil)
		if err != nil {
			t.Fatalf("%s/%v iteration %d: %v", w.Name, mode, i, err)
		}
		s.returns = append(s.returns, v.I)
	}
	s.stats = machine.Env.Stats.Sub(start)
	s.output = slices.Clone(machine.Env.Output)
	steadyRuns[key] = s
	return s
}

// row is one benchmark's percentage change against no escape analysis, the
// counter columns of the paper's Table 1.
type row struct {
	name             string
	mb, allocs, mons float64
}

func pct(without, with int64) float64 {
	if without == 0 {
		return 0
	}
	return float64(with-without) / float64(without) * 100
}

func measureRow(t *testing.T, w WorkloadSpec, mode vm.EAMode) row {
	t.Helper()
	off, on := measure(t, w, vm.EAOff).stats, measure(t, w, mode).stats
	return row{
		name:   w.Name,
		mb:     pct(off.AllocatedBytes, on.AllocatedBytes),
		allocs: pct(off.Allocations, on.Allocations),
		mons:   pct(off.MonitorOps, on.MonitorOps),
	}
}

// suiteRows measures every workload of a suite against the given mode.
func suiteRows(t *testing.T, suite string, mode vm.EAMode) []row {
	t.Helper()
	var rows []row
	for _, w := range BySuite(suite) {
		rows = append(rows, measureRow(t, w, mode))
	}
	return rows
}

func find(t *testing.T, name string, mode vm.EAMode) row {
	t.Helper()
	for _, w := range Suites() {
		if w.Name == name {
			return measureRow(t, w, mode)
		}
	}
	t.Fatalf("no workload %q", name)
	return row{}
}

// averages computes the arithmetic-mean percentage changes over rows (the
// paper's "average" line, which includes benchmarks omitted from the
// table).
func averages(rows []row) (mb, allocs float64) {
	for _, r := range rows {
		mb += r.mb
		allocs += r.allocs
	}
	n := float64(len(rows))
	return mb / n, allocs / n
}

// TestTable1Shape asserts the qualitative structure of the counter columns
// of the paper's Table 1: every benchmark's allocation metrics move in the
// paper's direction and the extremes sit on the right benchmarks. Run with
// -v for the measured table EXPERIMENTS.md quotes.
func TestTable1Shape(t *testing.T) {
	avg := map[string]float64{}
	for _, suite := range SuiteNames() {
		rows := suiteRows(t, suite, vm.EAPartial)
		for _, r := range rows {
			p := PaperTable1[r.name]
			t.Logf("%-12s %-12s MB %+6.1f%% (paper %+6.1f%%)  allocs %+6.1f%% (paper %+6.1f%%)  monitors %+5.1f%%",
				suite, r.name, r.mb, p.MBDelta, r.allocs, p.AllocsD, r.mons)
			// Allocation metrics never increase, and decrease
			// wherever the paper reports a decrease.
			if r.allocs > 0.01 || r.mb > 0.01 {
				t.Errorf("%s/%s: allocation metrics increased: MB %+0.1f%%, allocs %+0.1f%%",
					suite, r.name, r.mb, r.allocs)
			}
			if p.AllocsD < -2 && r.allocs > p.AllocsD/3 {
				t.Errorf("%s: allocs %+0.1f%%, paper %+0.1f%% — reduction too weak",
					r.name, r.allocs, p.AllocsD)
			}
			// The alloc-count reduction is at least the byte
			// reduction (escaped arrays keep bytes high), the
			// paper's general observation.
			if r.allocs > r.mb+1 {
				t.Errorf("%s: alloc reduction (%+0.1f%%) weaker than byte reduction (%+0.1f%%)",
					r.name, r.allocs, r.mb)
			}
		}
		mb, allocs := averages(rows)
		t.Logf("%-12s %-12s MB %+6.1f%%  allocs %+6.1f%%", suite, "average", mb, allocs)
		avg[suite] = allocs
	}

	// factorie has the largest byte reduction (paper: -58.5%).
	if fact := find(t, "factorie", vm.EAPartial); fact.mb > -45 {
		t.Errorf("factorie: MB %+0.1f%%, paper -58.5%%", fact.mb)
	}
	// specs has the largest allocation-count reduction (paper: -72%).
	if specs := find(t, "specs", vm.EAPartial); specs.allocs > -55 {
		t.Errorf("specs allocs %+0.1f%%, paper -72%%", specs.allocs)
	}
	// Suite ordering: ScalaDaCapo benefits more than DaCapo (paper:
	// -22.7% vs -8.0% allocations).
	if avg["scaladacapo"] >= avg["dacapo"] {
		t.Errorf("ScalaDaCapo average alloc reduction (%+0.1f%%) should exceed DaCapo's (%+0.1f%%)",
			avg["scaladacapo"], avg["dacapo"])
	}
	if avg["specjbb"] > -25 {
		t.Errorf("SPECjbb2005: allocs %+0.1f%%, paper -38.1%%", avg["specjbb"])
	}
}

// TestLockReductions reproduces the §6.1 lock observation: tomcat and
// SPECjbb2005 show a few-percent monitor-operation reduction; benchmarks
// without elidable locks show none.
func TestLockReductions(t *testing.T) {
	tom := find(t, "tomcat", vm.EAPartial)
	if tom.mons >= 0 || tom.mons < -15 {
		t.Errorf("tomcat monitor ops %+0.1f%%, paper -4%%", tom.mons)
	}
	jbb := find(t, "specjbb2005", vm.EAPartial)
	if jbb.mons >= 0 || jbb.mons < -15 {
		t.Errorf("SPECjbb2005 monitor ops %+0.1f%%, paper -3.8%%", jbb.mons)
	}
	h2 := find(t, "h2", vm.EAPartial)
	if h2.mons != 0 {
		t.Errorf("h2 monitor ops should not change, got %+0.1f%%", h2.mons)
	}
}

// TestComparisonEAvsPEA reproduces §6.2 in allocations: the
// flow-insensitive baseline removes fewer allocations than Partial Escape
// Analysis on every suite, and on no single benchmark more. (The paper
// states the comparison in speedup — 0.9 vs 2.2 % on DaCapo, 7.4 vs 10.4 %
// on ScalaDaCapo, 5.4 vs 8.7 % on SPECjbb2005 — which needs a wall-clock
// EA column in peaperf.)
func TestComparisonEAvsPEA(t *testing.T) {
	for _, suite := range SuiteNames() {
		eaRows := suiteRows(t, suite, vm.EAFlowInsensitive)
		peaRows := suiteRows(t, suite, vm.EAPartial)
		_, eaAllocs := averages(eaRows)
		_, peaAllocs := averages(peaRows)
		t.Logf("%-12s allocs: EA %+6.2f%%  PEA %+6.2f%%", suite, eaAllocs, peaAllocs)
		if eaAllocs <= peaAllocs {
			t.Errorf("%s: EA allocation change %+0.2f%% should be weaker than PEA's %+0.2f%%",
				suite, eaAllocs, peaAllocs)
		}
		if eaAllocs > 0.01 {
			t.Errorf("%s: EA increased allocations: %+0.2f%%", suite, eaAllocs)
		}
		for i, e := range eaRows {
			if p := peaRows[i]; e.allocs < p.allocs || e.mb < p.mb {
				t.Errorf("%s: EA beats PEA: allocs %+0.2f%% vs %+0.2f%%, MB %+0.2f%% vs %+0.2f%%",
					e.name, e.allocs, p.allocs, e.mb, p.mb)
			}
		}
	}
}

// TestWorkloadsProduceIdenticalOutput: every workload must behave
// identically under all configurations (the measurements above are only
// meaningful for semantics-preserving compilation).
func TestWorkloadsProduceIdenticalOutput(t *testing.T) {
	for _, w := range Suites() {
		want := measure(t, w, vm.EAOff)
		for _, mode := range []vm.EAMode{vm.EAFlowInsensitive, vm.EAPartial} {
			got := measure(t, w, mode)
			if !slices.Equal(got.returns, want.returns) {
				t.Errorf("%s: %v returned %v, no-EA returned %v", w.Name, mode, got.returns, want.returns)
			}
			if !slices.Equal(got.output, want.output) {
				t.Errorf("%s: %v printed %v, no-EA printed %v", w.Name, mode, got.output, want.output)
			}
		}
	}
}
