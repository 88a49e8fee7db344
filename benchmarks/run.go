package benchmarks

import (
	"fmt"
	"math"
	"path/filepath"
	"time"
)

// NominalSeconds is the run length the workload sizes were chosen for on the
// two-vCPU sandbox: scale 1 means about this much timed work per workload.
// Counts are fixed by the scale, never by a deadline.
const NominalSeconds = 12

// setupPasses is how often a full-size run repeats its set-up; setup_s is the
// median. probePasses is how often a traced run repeats its compile probes.
const (
	setupPasses = 5
	probePasses = 3
)

// setupPasses scales the repetitions like every other count, so that a
// fiftieth-size smoke run does not spend its time setting up.
func (w *work) setupPasses() int {
	n := int(setupPasses*4*w.cfg.Scale + 0.5)
	if n < 1 {
		return 1
	}
	if n > setupPasses {
		return setupPasses
	}
	return n
}

// Config selects one run of one workload.
type Config struct {
	// Dir is the benchmark's own directory: inputs under Dir/programs,
	// traces and scratch stores under Dir/out.
	Dir      string
	Workload string
	// Seed orders and perturbs the frozen inputs (program order within a
	// round, request order, the cold variants); it never reaches a guest.
	Seed  uint64
	Scale float64
	// Trace selects the traced run, which reports the per-layer metrics;
	// end-to-end metrics only ever come from untraced runs.
	Trace bool
}

// Metric is one reported value. Samples is how many timings the value
// summarizes (0 for counters).
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// Result is one run of one workload.
type Result struct {
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Scale      float64 `json:"scale"`
	Trace      bool    `json:"trace"`
	GoMaxProcs int     `json:"gomaxprocs"`
	WallS      float64 `json:"wall_s"`

	Correct     bool     `json:"correct"`
	Attempted   int      `json:"attempted"`
	Failed      int      `json:"failed"`
	FailedShare float64  `json:"failed_share"`
	Notes       []string `json:"notes,omitempty"`

	// Metrics holds every end-to-end metric (untraced run) or every
	// per-layer metric (traced run), by catalogue name.
	Metrics map[string]Metric `json:"metrics"`
	// Programs are the per-program rows of the steady workloads;
	// PairedPrograms, in a traced run, the same programs under the other
	// EA mode, timed interleaved with them.
	Programs       []ProgramRow `json:"programs,omitempty"`
	PairedPrograms []ProgramRow `json:"paired_programs,omitempty"`
	// TopSelf lists the traced run's layers by self time.
	TopSelf []LayerSelf `json:"top_self,omitempty"`
}

// work is the state one workload function fills in.
type work struct {
	cfg    Config
	man    *Manifest
	res    *Result
	fails  failures
	units  int // operations attempted: guest ops, cold starts or requests
	setups []float64
	tr     *tracer   // traced run only
	acc    *layerAcc // traced run only
}

func (w *work) outDir() string { return filepath.Join(w.cfg.Dir, "out") }

// load reads and verifies the frozen inputs; it is part of every set-up pass.
func (w *work) load() error {
	man, err := Load(filepath.Join(w.cfg.Dir, "programs"))
	w.man = man
	return err
}

// setup times one set-up pass.
func (w *work) setup(f func() error) error {
	start := time.Now()
	err := f()
	w.setups = append(w.setups, time.Since(start).Seconds())
	return err
}

func (w *work) e2e(name string, v float64, samples int) {
	if !w.cfg.Trace {
		w.res.Metrics[name] = Metric{Value: v, Samples: samples}
	}
}

func (w *work) layer(name string, v float64) {
	if w.cfg.Trace {
		w.res.Metrics[name] = Metric{Value: v}
	}
}

// layersFromAcc reports the compile-path and engine layer metrics the probes
// accumulated; they are defined the same way on every workload.
func (w *work) layersFromAcc() {
	a := w.acc
	for _, name := range []string{
		"mj.parse_us", "mj.compile_us", "mj.src_kb_per_s", "bc.verify_us",
		"interp.ns_per_op", "interp.go_allocs_per_op", "interp.warmup_ms", "exec.oracle_ns_per_op",
		"build.us", "opt.inline.us", "opt.canon.us", "opt.simplify.us", "opt.gvn.us", "opt.dce.us", "opt.post.us",
		"summary.compute_us", "ea.us", "pea.us", "check.basic_us", "sched.us", "closure.lower_us",
		"vm.compile_us_per_method", "vm.glue_us", "vm.new_us",
		"ir.encode_us", "ir.decode_us", "ir.artifact_kb", "broker.store_save_us", "broker.store_load_us",
	} {
		w.layer(name, a.avg(name))
	}
	for _, name := range []string{
		"bc.methods", "bc.instrs", "build.nodes", "opt.inline.count", "opt.nodes_after",
		"summary.noescape_params", "ea.virtualized", "pea.virtualized", "pea.materialized",
		"pea.locks_elided", "pea.nodes_after", "closure.code_nodes",
	} {
		w.layer(name, a.sum(name))
	}
	if total := a.sum("compile.total_us"); total > 0 {
		w.layer("pea.share_of_compile_pct", 100*a.sum("pea.us")/total)
	}
}

// goLayers reports the Go runtime's share of the timed section per unit of
// work: the guest heap is the Go heap, so this is the memory manager's cost.
func (w *work) goLayers(d goDelta, units int) {
	n := float64(units)
	w.layer("rt.go_allocs_per_op", float64(d.mallocs)/n)
	w.layer("rt.go_heap_kb_per_op", float64(d.bytes)/1024/n)
	w.layer("rt.gc_cycles_per_kop", float64(d.gcCycles)/n*1000)
	if d.totalCPU > 0 {
		w.layer("rt.gc_cpu_pct", 100*d.gcCPU/d.totalCPU)
	}
	w.layer("rt.gc_pause_us_per_kop", d.pauseS*1e6/n*1000)
}

var workloadFuncs = map[string]func(*work) error{
	"steady-pea":  runSteadyWorkload,
	"steady-noea": runSteadyWorkload,
	"compile":     runCompileWorkload,
	"serve-warm":  runServeWorkload,
	"serve-cold":  runServeWorkload,
}

// Run executes one workload in this process and returns its result. The
// process should run nothing else: peak_rss_mb is the process's own, and heap
// state would leak between workloads sharing one.
func Run(cfg Config) (*Result, error) {
	f := workloadFuncs[cfg.Workload]
	if f == nil {
		return nil, fmt.Errorf("benchmarks: unknown workload %q", cfg.Workload)
	}
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("benchmarks: scale must be positive, got %v", cfg.Scale)
	}
	start := time.Now()
	w := &work{cfg: cfg, res: &Result{
		Workload: cfg.Workload, Seed: cfg.Seed, Scale: cfg.Scale, Trace: cfg.Trace,
		GoMaxProcs: pinProcs(), Metrics: map[string]Metric{},
	}}
	if cfg.Trace {
		w.tr = newTracer()
		w.acc = newLayerAcc()
	}
	if err := f(w); err != nil {
		return nil, err
	}
	w.e2e("setup_s", median(w.setups), len(w.setups))
	w.e2e("peak_rss_mb", peakRSSMB(), 0)

	res := w.res
	defs := EndToEnd
	if cfg.Trace {
		defs = PerLayer
		res.TopSelf = w.tr.topSelf(5)
		if err := w.tr.write(w.outDir(), cfg.Workload); err != nil {
			return nil, err
		}
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
	}
	for name := range res.Metrics {
		if !known[name] {
			return nil, fmt.Errorf("benchmarks: workload %s reported %s, which the catalogue does not name", cfg.Workload, name)
		}
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		if !ok && !cfg.Trace {
			return nil, fmt.Errorf("benchmarks: workload %s did not report %s", cfg.Workload, d.Name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("benchmarks: workload %s reported %s = %v", cfg.Workload, d.Name, m.Value)
		}
		m.Unit = d.Unit
		res.Metrics[d.Name] = m
	}
	res.Attempted = w.units
	res.Failed = w.fails.n
	res.Notes = w.fails.notes
	res.Correct = res.Failed == 0
	if res.Attempted > 0 {
		res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}
