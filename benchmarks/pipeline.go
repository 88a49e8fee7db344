package benchmarks

import (
	"fmt"
	"os"
	"time"

	"pea/internal/bc"
	"pea/internal/broker"
	"pea/internal/build"
	"pea/internal/check"
	"pea/internal/ea"
	"pea/internal/exec/closure"
	"pea/internal/ir"
	"pea/internal/mj"
	"pea/internal/obs"
	"pea/internal/opt"
	"pea/internal/pea"
	"pea/internal/sched"
	"pea/internal/summary"
	"pea/internal/vm"
)

// layerAcc gathers per-layer samples of a traced run. Timings are kept per
// key (a method or a program) so that repeated passes reduce to a median per
// key before keys are averaged; counts are exact and summed.
type layerAcc struct {
	samples map[string]map[string][]float64
}

func newLayerAcc() *layerAcc { return &layerAcc{samples: map[string]map[string][]float64{}} }

func (a *layerAcc) observe(metric, key string, v float64) {
	m := a.samples[metric]
	if m == nil {
		m = map[string][]float64{}
		a.samples[metric] = m
	}
	m[key] = append(m[key], v)
}

func (a *layerAcc) us(metric, key string, d time.Duration) {
	a.observe(metric, key, float64(d.Nanoseconds())/1e3)
}

// perKey returns the median of every key's samples.
func (a *layerAcc) perKey(metric string) []float64 {
	var out []float64
	for _, s := range a.samples[metric] {
		out = append(out, median(s))
	}
	return out
}

// avg is the mean over keys of the per-key median; sum is their total.
func (a *layerAcc) avg(metric string) float64 { return mean(a.perKey(metric)) }
func (a *layerAcc) sum(metric string) float64 {
	var s float64
	for _, v := range a.perKey(metric) {
		s += v
	}
	return s
}

// installedMethods lists the methods machine currently runs compiled.
func installedMethods(machine *vm.VM) []*bc.Method {
	var out []*bc.Method
	for _, m := range machine.Prog.Methods {
		if machine.CompiledGraph(m) != nil {
			out = append(out, m)
		}
	}
	return out
}

var optMetric = map[string]string{
	"inline": "opt.inline.us", "canonicalize": "opt.canon.us", "simplify-cfg": "opt.simplify.us",
	"gvn": "opt.gvn.us", "dce": "opt.dce.us",
}

// runRounds is opt.Pipeline.Run with a span around every phase's Run: the
// phases iterate as a group until none changes the graph, four rounds at
// most, and the sanitizer runs after each phase when lvl asks for it.
func runRounds(tr *tracer, phases []opt.Phase, g *ir.Graph, lvl check.Level, spent map[string]time.Duration) error {
	for r := 0; r < 4; r++ {
		changed := false
		for _, ph := range phases {
			var c bool
			var err error
			spent[ph.Name()] += tr.span("opt."+ph.Name(), func() { c, err = ph.Run(g) })
			if err != nil {
				return fmt.Errorf("opt: phase %s: %w", ph.Name(), err)
			}
			if lvl != check.Off {
				spent["check"] += tr.span("check.Graph", func() { err = check.Graph(g, lvl) })
				if err != nil {
					return err
				}
			}
			changed = changed || c
		}
		if !changed {
			break
		}
	}
	return nil
}

// replay drives the compiler for m by hand — the same public calls, in the
// same order and with the same inputs as vm.Compile makes for a
// non-speculative method-entry compile — with a span around each. A replay in
// the VM's own mode records every layer metric and returns the finished
// graph; a side replay in another mode stops after the analysis it exists to
// time. The returned duration is the sum of the spans vm.Compile also runs.
func replay(tr *tracer, acc *layerAcc, machine *vm.VM, m *bc.Method, mode vm.EAMode, key string) (*ir.Graph, time.Duration, error) {
	native := mode == machine.Opts.EA
	lvl := check.Effective(machine.Opts.CheckLevel)
	spent := map[string]time.Duration{}
	var pipeline time.Duration
	tr.begin("replay." + mode.String())
	defer tr.end()

	var g *ir.Graph
	var err error
	d := tr.span("build.Build", func() { g, err = build.Build(m) })
	if err != nil {
		return nil, 0, err
	}
	pipeline += d
	if native {
		acc.us("build.us", key, d)
		acc.observe("build.nodes", key, float64(g.NumNodes()))
	}

	var sums *summary.Set
	var calleeSafe func(*ir.Node) []bool
	if machine.Opts.Summaries {
		sums = machine.Summaries()
		calleeSafe = sums.ArgSafe
	}
	inlines := obs.NewMetrics()
	inlineSink := obs.NewSink()
	inlineSink.SetMetrics(inlines)
	phases := []opt.Phase{
		&opt.Inliner{BuildGraph: build.Build, Program: machine.Prog, Profile: machine.Interp.Profile,
			Sink: inlineSink, Summaries: sums},
		opt.Canonicalize{}, opt.SimplifyCFG{}, opt.GVN{}, opt.DCE{},
	}
	if err := runRounds(tr, phases, g, lvl, spent); err != nil {
		return nil, 0, err
	}
	if native {
		for name, metric := range optMetric {
			acc.us(metric, key, spent[name])
		}
		acc.observe("opt.inline.count", key, float64(inlines.Counter(obs.MetricInlines)))
		acc.observe("opt.nodes_after", key, float64(g.NumNodes()))
	}
	for _, d := range spent {
		pipeline += d
	}

	if mode != vm.EAOff {
		conf := pea.Config{Check: lvl, CalleeNoEscape: calleeSafe}
		var res pea.Result
		layer := mode.String() // "ea" or "pea"
		if mode == vm.EAPartial {
			d = tr.span("pea.Run", func() { res, err = pea.Run(g, conf) })
		} else {
			d = tr.span("ea.Run", func() { res, err = ea.Run(g, conf) })
		}
		if err != nil {
			return nil, 0, err
		}
		pipeline += d
		acc.us(layer+".us", key, d)
		acc.observe(layer+".virtualized", key, float64(res.VirtualizedAllocs))
		if mode == vm.EAPartial {
			acc.observe("pea.materialized", key, float64(res.MaterializeSites))
			acc.observe("pea.locks_elided", key, float64(res.ElidedMonitors))
			acc.observe("pea.nodes_after", key, float64(g.NumNodes()))
		}
	}
	if !native {
		return g, pipeline, nil
	}

	// vm.Compile checks the graph here at its own level; the traced run
	// always times the Basic check, which is what peaserve runs.
	d = tr.span("check.Graph", func() { err = check.Graph(g, check.Max(lvl, check.Basic)) })
	if err != nil {
		return nil, 0, err
	}
	acc.us("check.basic_us", key, d)
	if lvl != check.Off {
		pipeline += d
	}

	postSpent := map[string]time.Duration{}
	tr.begin("opt.post")
	err = runRounds(tr, opt.Standard().Phases, g, lvl, postSpent)
	d = tr.end()
	if err != nil {
		return nil, 0, err
	}
	acc.us("opt.post.us", key, d)
	pipeline += d
	g.CodeCycles = int64(g.NumNodes()) / 3
	return g, pipeline, nil
}

// probeCompile attributes the compile path of every method machine has
// installed: vm.Compile and the closure lowering timed as the VM runs them,
// the hand-driven replay beside them (whose ir.Dump must equal vm.Compile's,
// or the trace describes a different compiler), then the artifact codec and
// the store. prog names the program in keys and messages.
func probeCompile(tr *tracer, acc *layerAcc, machine *vm.VM, prog string, store *broker.Store, fails *failures) error {
	backend := closure.New()
	for _, m := range installedMethods(machine) {
		key := prog + "/" + m.QualifiedName()
		tr.setOp(key)

		var vg *ir.Graph
		var err error
		tr.begin("compile")
		dCompile := tr.span("vm.Compile", func() { vg, err = machine.Compile(m) })
		if err != nil {
			tr.end()
			return fmt.Errorf("benchmarks: vm.Compile %s: %w", key, err)
		}
		dLower := tr.span("closure.Compile", func() { _, err = backend.Compile(vg) })
		tr.end()
		if err != nil {
			return fmt.Errorf("benchmarks: lowering %s: %w", key, err)
		}
		acc.us("vm.compile_us_per_method", key, dCompile+dLower)
		acc.us("closure.lower_us", key, dLower)
		acc.observe("closure.code_nodes", key, float64(vg.NumNodes()))

		g, pipeline, err := replay(tr, acc, machine, m, machine.Opts.EA, key)
		if err != nil {
			return fmt.Errorf("benchmarks: replaying %s: %w", key, err)
		}
		total := pipeline + dLower
		for _, mode := range []vm.EAMode{vm.EAFlowInsensitive, vm.EAPartial} {
			if mode == machine.Opts.EA {
				continue
			}
			// Side replays time the analyses this workload's VMs do not
			// run, so ea.* and pea.* are reported on every workload.
			_, d, err := replay(tr, acc, machine, m, mode, key)
			if err != nil {
				return fmt.Errorf("benchmarks: replaying %s (%v): %w", key, mode, err)
			}
			if mode == vm.EAPartial {
				total = d + dLower
			}
		}
		acc.us("compile.total_us", key, total)
		if ir.Dump(g) != ir.Dump(vg) {
			fails.add("%s: the hand-driven pipeline's ir.Dump differs from vm.Compile's", key)
		}
		acc.us("vm.glue_us", key, dCompile-pipeline)

		acc.us("sched.us", key, tr.span("sched.Compute", func() { _, err = sched.Compute(g) }))
		if err != nil {
			return err
		}

		var payload []byte
		acc.us("ir.encode_us", key, tr.span("ir.EncodeJSON", func() { payload, err = ir.EncodeJSON(g) }))
		if err != nil {
			return err
		}
		acc.observe("ir.artifact_kb", key, float64(len(payload))/1024)
		acc.us("ir.decode_us", key, tr.span("ir.DecodeJSON", func() { _, err = ir.DecodeJSON(payload, machine.Prog) }))
		if err != nil {
			return err
		}
		k := broker.Key{MethodFP: machine.Prog.MethodFingerprint(m), Name: m.QualifiedName(),
			Mode: int(machine.Opts.EA), EntryBCI: broker.NoOSR, Backend: backend.Name()}
		acc.us("broker.store_save_us", key, tr.span("Store.Put", func() { err = store.Put(k, g) }))
		if err != nil {
			return err
		}
		var ok bool
		acc.us("broker.store_load_us", key, tr.span("Store.Load", func() { _, ok = store.Load(k, machine.Prog, check.Basic) }))
		if !ok {
			fails.add("%s: the store did not return the artifact just saved", key)
		}
	}
	tr.setOp("")
	return nil
}

// probeFrontEnd attributes source → linked program → VM for one program.
func probeFrontEnd(tr *tracer, acc *layerAcc, p *Program, opts vm.Options) error {
	tr.setOp(p.Name)
	defer tr.setOp("")
	var err error
	acc.us("mj.parse_us", p.Name, tr.span("mj.Parse", func() { _, err = mj.Parse(p.Source) }))
	if err != nil {
		return err
	}
	var prog *bc.Program
	d := tr.span("mj.Compile", func() { prog, err = mj.Compile(p.Source, "Main.main") })
	if err != nil {
		return err
	}
	acc.us("mj.compile_us", p.Name, d)
	acc.observe("mj.src_kb_per_s", p.Name, float64(len(p.Source))/1024/d.Seconds())

	instrs := 0
	d = tr.span("bc.Verify", func() {
		for _, m := range prog.Methods {
			if err == nil {
				err = bc.Verify(m)
			}
			instrs += len(m.Code)
		}
	})
	if err != nil {
		return err
	}
	acc.us("bc.verify_us", p.Name, d/time.Duration(len(prog.Methods)))
	acc.observe("bc.methods", p.Name, float64(len(prog.Methods)))
	acc.observe("bc.instrs", p.Name, float64(instrs))

	var set *summary.Set
	acc.us("summary.compute_us", p.Name, tr.span("summary.Compute", func() { set = summary.Compute(prog, summary.Options{}) }))
	acc.observe("summary.noescape_params", p.Name, float64(set.Stats().NoEscape))

	acc.us("vm.new_us", p.Name, tr.span("vm.New", func() { vm.New(prog, opts).Close() }))
	return nil
}

// probeEngines times the interpreter and the oracle backend on p, a few ops
// each: the engines beside the closure backend, which the workloads time.
func probeEngines(tr *tracer, acc *layerAcc, p *Program, mode vm.EAMode) error {
	tr.setOp(p.Name)
	defer tr.setOp("")
	const interpOps, oracleWarm, oracleOps = 2, 11, 3

	g, err := newGuest(p, interpreterOptions(p))
	if err != nil {
		return err
	}
	g0 := readGo()
	d := tr.span("interp", func() {
		for i := 0; i < interpOps && err == nil; i++ {
			err = g.step()
		}
	})
	mallocs := readGo().sub(g0).mallocs
	g.close()
	if err != nil {
		return err
	}
	acc.observe("interp.ns_per_op", p.Name, float64(d.Nanoseconds())/interpOps)
	acc.observe("interp.go_allocs_per_op", p.Name, float64(mallocs)/interpOps)

	g, err = newGuest(p, jitOptions(p, mode, vm.BackendOracle))
	if err != nil {
		return err
	}
	defer g.close()
	for i := 0; i < oracleWarm; i++ {
		if err := g.step(); err != nil {
			return err
		}
	}
	d = tr.span("exec.oracle", func() {
		for i := 0; i < oracleOps && err == nil; i++ {
			err = g.step()
		}
	})
	acc.observe("exec.oracle_ns_per_op", p.Name, float64(d.Nanoseconds())/oracleOps)
	return err
}

// probeStore opens a scratch artifact store for the codec/store probes.
func probeStore(outDir string) (*broker.Store, func(), error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, nil, err
	}
	dir, err := os.MkdirTemp(outDir, "probe-store-")
	if err != nil {
		return nil, nil, err
	}
	store, err := broker.NewStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return store, func() { os.RemoveAll(dir) }, nil
}
