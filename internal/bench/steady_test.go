package bench_test

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"pea/benchmarks"
	"pea/internal/bc"
	"pea/internal/bench"
	"pea/internal/mj"
	"pea/internal/rt"
	"pea/internal/vm"
)

// The window the steady-pea and steady-noea workloads of peaperf count guest
// counters over at scale 1: 50 untimed warm-up ops, then 8 rounds of 15
// batches of 20 ops. Every exact counter of Table 1, §6.1 and §6.2 below is
// taken over it.
const (
	steadyWarmupOps = 50
	steadyTimedOps  = 8 * 15 * 20
	// hashPrime folds results and output as peaperf's guest does, so a
	// run's hash compares with the manifest's interpreter checkpoints.
	hashPrime = 1099511628211
)

// modes are the three configurations of the evaluation, in golden order.
var modes = [3]vm.EAMode{vm.EAOff, vm.EAFlowInsensitive, vm.EAPartial}

// golden is one frozen program's exact guest counters over the timed window,
// indexed [mode][counter]: modes' order, then allocations, allocated bytes
// and monitor ops. Divided by steadyTimedOps the first two are the
// per-program guest_allocs_per_op and guest_kb_per_op (bytes / 1024) peaperf
// reports.
type golden [3][3]int64

// steadyGoldens covers every frozen Table 1 program in bench.Suites() order,
// plus callheavy and trycatch.
var steadyGoldens = []struct {
	name   string
	counts golden
}{
	{"fop", golden{{1872000, 94464000, 403200}, {1756800, 90777600, 288000}, {1730822, 89946304, 288000}}},
	{"h2", golden{{1684800, 98265600, 230400}, {1627200, 96422400, 230400}, {1590552, 95249664, 230400}}},
	{"jython", golden{{1641600, 78451200, 0}, {1641600, 78451200, 0}, {1429976, 71679232, 0}}},
	{"sunflow", golden{{1612800, 74649600, 0}, {1267200, 63590400, 0}, {1157790, 60089280, 0}}},
	{"tomcat", golden{{1742400, 102528000, 921600}, {1684800, 100684800, 864000}, {1671853, 100270496, 864000}}},
	{"tradebeans", golden{{1468800, 83289600, 144000}, {1353600, 79603200, 144000}, {1301866, 77947712, 144000}}},
	{"xalan", golden{{1627200, 96422400, 0}, {1598400, 95500800, 0}, {1586069, 95106208, 0}}},
	{"avrora", golden{{1728000, 76800000, 0}, {1728000, 76800000, 0}, {1728000, 76800000, 0}}},
	{"batik", golden{{1824000, 96384000, 0}, {1824000, 96384000, 0}, {1824000, 96384000, 0}}},
	{"eclipse", golden{{1920000, 88320000, 0}, {1920000, 88320000, 0}, {1920000, 88320000, 0}}},
	{"luindex", golden{{768000, 70656000, 0}, {768000, 70656000, 0}, {768000, 70656000, 0}}},
	{"lusearch", golden{{1056000, 97152000, 0}, {1056000, 97152000, 0}, {1056000, 97152000, 0}}},
	{"pmd", golden{{1824000, 82560000, 0}, {1824000, 82560000, 0}, {1824000, 82560000, 0}}},
	{"tradesoap", golden{{960000, 65280000, 192000}, {960000, 65280000, 192000}, {960000, 65280000, 192000}}},
	{"actors", golden{{1425600, 68659200, 172800}, {1224000, 62208000, 172800}, {1156302, 60041664, 172800}}},
	{"apparat", golden{{1382400, 80524800, 0}, {1324800, 78681600, 0}, {1297709, 77814688, 0}}},
	{"factorie", golden{{2030400, 74649600, 0}, {950400, 40089600, 0}, {810699, 35619168, 0}}},
	{"kiama", golden{{1324800, 65433600, 0}, {1209600, 61747200, 0}, {1155538, 60017216, 0}}},
	{"scalac", golden{{1440000, 67968000, 0}, {1209600, 60595200, 0}, {1108521, 57360672, 0}}},
	{"scaladoc", golden{{1468800, 77644800, 0}, {1209600, 69350400, 0}, {1109579, 66149728, 0}}},
	{"scalap", golden{{1324800, 65433600, 0}, {1209600, 61747200, 0}, {1154866, 59995712, 0}}},
	{"scalariform", golden{{1396800, 72345600, 0}, {1224000, 66816000, 0}, {1156963, 64670816, 0}}},
	{"scalatest", golden{{1339200, 73958400, 288000}, {1310400, 73036800, 288000}, {1297438, 72622016, 288000}}},
	{"scalaxb", golden{{1411200, 88704000, 0}, {1296000, 85017600, 0}, {1219941, 82583712, 0}}},
	{"specs", golden{{1929600, 128563200, 0}, {720000, 89856000, 0}, {583213, 85478816, 0}}},
	{"tmt", golden{{1627200, 126950400, 0}, {1512000, 123264000, 0}, {1448620, 121235840, 0}}},
	{"specjbb2005", golden{{2131200, 148838400, 960000}, {1536000, 129792000, 921600}, {1355437, 124013984, 921600}}},
	{"callheavy", golden{{4800000, 153600000, 0}, {0, 0, 0}, {0, 0, 0}}},
	{"trycatch", golden{{484800, 11635200, 0}, {4800, 115200, 0}, {4800, 115200, 0}}},
}

// steady is one program's run under one mode: the rt.Stats delta of the
// timed window, and a rolling hash of every op's return value and printed
// output, warm-up included.
type steady struct {
	stats rt.Stats
	hash  uint64
}

type runKey struct {
	name string
	mode vm.EAMode
}

var (
	manifest = sync.OnceValues(func() (*benchmarks.Manifest, error) {
		return benchmarks.Load("../../benchmarks/programs")
	})
	runsMu sync.Mutex
	runs   = map[runKey]func() (steady, error){}
)

// steadyCounters runs the frozen program name under mode once per process,
// as peaperf's steady workloads drive it: the closure backend, threshold 10,
// the program's frozen seed, its set-up, the warm-up ops, DrainJIT, then the
// timed ops. The counters are exact, so every assertion on them is
// noise-free.
func steadyCounters(t *testing.T, name string, mode vm.EAMode) steady {
	t.Helper()
	p, _ := program(t, name)
	runsMu.Lock()
	run, ok := runs[runKey{name, mode}]
	if !ok {
		run = sync.OnceValues(func() (steady, error) { return runSteady(p, mode) })
		runs[runKey{name, mode}] = run
	}
	runsMu.Unlock()
	s, err := run()
	if err != nil {
		t.Fatalf("%s/%v: %v", name, mode, err)
	}
	return s
}

// program returns the frozen program name and the stride of the manifest's
// interpreter checkpoints.
func program(t *testing.T, name string) (*benchmarks.Program, int) {
	t.Helper()
	m, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(m.Programs, func(p benchmarks.Program) bool { return p.Name == name })
	if i < 0 {
		t.Fatalf("%s is not in the manifest", name)
	}
	return &m.Programs[i], m.RefStride
}

func runSteady(p *benchmarks.Program, mode vm.EAMode) (s steady, err error) {
	prog, err := mj.Compile(p.Source, "Main.main")
	if err != nil {
		return s, err
	}
	machine := vm.New(prog, vm.Options{EA: mode, Backend: vm.BackendClosure, CompileThreshold: 10, Seed: p.Seed})
	defer machine.Close()
	method := func(qualified string) (*bc.Method, error) {
		cls, name, _ := strings.Cut(qualified, ".")
		if c := prog.ClassByName(cls); c != nil {
			if m := c.MethodByName(name); m != nil {
				return m, nil
			}
		}
		return nil, fmt.Errorf("no method %s", qualified)
	}
	if p.Setup != "" {
		setup, err := method(p.Setup)
		if err == nil {
			_, err = machine.Call(setup, nil)
		}
		if err != nil {
			return s, err
		}
	}
	op, err := method(p.Op)
	if err != nil {
		return s, err
	}
	var before rt.Stats
	for i := 0; i < steadyWarmupOps+steadyTimedOps; i++ {
		if i == steadyWarmupOps {
			machine.DrainJIT()
			before = machine.Env.Stats
		}
		v, err := machine.Call(op, nil)
		if err != nil {
			return s, fmt.Errorf("op %d: %w", i, err)
		}
		s.hash = (s.hash ^ uint64(v.I)) * hashPrime
		for _, o := range machine.Env.Output {
			s.hash = (s.hash ^ uint64(o)) * hashPrime
		}
		machine.Env.Output = machine.Env.Output[:0]
	}
	s.stats = machine.Env.Stats.Sub(before)
	if n := len(machine.FailedCompilations()); n > 0 {
		return s, fmt.Errorf("%d methods failed to compile", n)
	}
	return s, nil
}

// TestSteadyAllocationsGolden pins, program by program and mode by mode, the
// guest allocations, bytes and monitor ops of the timed window, so a
// regression in one program fails here instead of hiding inside a suite
// average or the twelve-program mean the benchmark gates on. Its subtests
// run in parallel and fill the memo the tests below read.
func TestSteadyAllocationsGolden(t *testing.T) {
	for _, want := range steadyGoldens {
		for i, mode := range modes {
			t.Run(want.name+"/"+mode.String(), func(t *testing.T) {
				t.Parallel()
				d := steadyCounters(t, want.name, mode).stats
				got := [3]int64{d.Allocations, d.AllocatedBytes, d.MonitorOps}
				if w := want.counts[i]; got != w {
					t.Errorf("allocations, bytes, monitor ops %v (%.4f / %.4f KB per op); golden %v (%.4f / %.4f)",
						got, perOp(got[0]), perOp(got[1])/1024, w, perOp(w[0]), perOp(w[1])/1024)
				}
			})
		}
	}
}

func perOp(n int64) float64 { return float64(n) / steadyTimedOps }

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

func rowOf(t *testing.T, name string, mode vm.EAMode) row {
	t.Helper()
	off, on := steadyCounters(t, name, vm.EAOff).stats, steadyCounters(t, name, mode).stats
	return row{
		name:   name,
		mb:     pct(off.AllocatedBytes, on.AllocatedBytes),
		allocs: pct(off.Allocations, on.Allocations),
		mons:   pct(off.MonitorOps, on.MonitorOps),
	}
}

// table1 returns every Table 1 row under mode, grouped by suite, the suites
// in evaluation order.
func table1(t *testing.T, mode vm.EAMode) (suites []string, rows map[string][]row) {
	t.Helper()
	rows = map[string][]row{}
	for _, w := range bench.Suites() {
		if rows[w.Suite] == nil {
			suites = append(suites, w.Suite)
		}
		rows[w.Suite] = append(rows[w.Suite], rowOf(t, w.Name, mode))
	}
	return suites, rows
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
	suites, rows := table1(t, vm.EAPartial)
	for _, suite := range suites {
		for _, r := range rows[suite] {
			p := bench.PaperTable1[r.name]
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
		mb, allocs := averages(rows[suite])
		t.Logf("%-12s %-12s MB %+6.1f%%  allocs %+6.1f%%", suite, "average", mb, allocs)
		avg[suite] = allocs
	}

	// factorie has the largest byte reduction (paper: -58.5%).
	if fact := rowOf(t, "factorie", vm.EAPartial); fact.mb > -45 {
		t.Errorf("factorie: MB %+0.1f%%, paper -58.5%%", fact.mb)
	}
	// specs has the largest allocation-count reduction (paper: -72%).
	if specs := rowOf(t, "specs", vm.EAPartial); specs.allocs > -55 {
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
	tom := rowOf(t, "tomcat", vm.EAPartial)
	if tom.mons >= 0 || tom.mons < -15 {
		t.Errorf("tomcat monitor ops %+0.1f%%, paper -4%%", tom.mons)
	}
	jbb := rowOf(t, "specjbb2005", vm.EAPartial)
	if jbb.mons >= 0 || jbb.mons < -15 {
		t.Errorf("SPECjbb2005 monitor ops %+0.1f%%, paper -3.8%%", jbb.mons)
	}
	h2 := rowOf(t, "h2", vm.EAPartial)
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
	suites, eaRows := table1(t, vm.EAFlowInsensitive)
	_, peaRows := table1(t, vm.EAPartial)
	for _, suite := range suites {
		_, eaAllocs := averages(eaRows[suite])
		_, peaAllocs := averages(peaRows[suite])
		t.Logf("%-12s allocs: EA %+6.2f%%  PEA %+6.2f%%", suite, eaAllocs, peaAllocs)
		if eaAllocs <= peaAllocs {
			t.Errorf("%s: EA allocation change %+0.2f%% should be weaker than PEA's %+0.2f%%",
				suite, eaAllocs, peaAllocs)
		}
		if eaAllocs > 0.01 {
			t.Errorf("%s: EA increased allocations: %+0.2f%%", suite, eaAllocs)
		}
		for i, e := range eaRows[suite] {
			if p := peaRows[suite][i]; e.allocs < p.allocs || e.mb < p.mb {
				t.Errorf("%s: EA beats PEA: allocs %+0.2f%% vs %+0.2f%%, MB %+0.2f%% vs %+0.2f%%",
					e.name, e.allocs, p.allocs, e.mb, p.mb)
			}
		}
	}
}

// TestWorkloadsProduceIdenticalOutput: every program must behave identically
// under all three modes (the measurements above are only meaningful for
// semantics-preserving compilation), and, where the manifest froze an
// interpreter checkpoint after the window's last op, like the interpreter.
func TestWorkloadsProduceIdenticalOutput(t *testing.T) {
	for _, g := range steadyGoldens {
		want := steadyCounters(t, g.name, vm.EAOff).hash
		for _, mode := range modes[1:] {
			if got := steadyCounters(t, g.name, mode).hash; got != want {
				t.Errorf("%s: %v output hash %016x, no-EA %016x", g.name, mode, got, want)
			}
		}
		p, stride := program(t, g.name)
		if n := (steadyWarmupOps + steadyTimedOps) / stride; len(p.Ref) >= n {
			if h, _ := strconv.ParseUint(p.Ref[n-1], 16, 64); h != want {
				t.Errorf("%s: output hash %016x, interpreter %s", g.name, want, p.Ref[n-1])
			}
		}
	}
}
