package benchmarks

import (
	"fmt"
	"math/rand"
	"time"

	"pea/internal/bc"
	"pea/internal/exec/closure"
	"pea/internal/mj"
	"pea/internal/rt"
	"pea/internal/vm"
)

// Steady-state shape at scale 1 (ISSUE 11 sizing: fixed counts, never
// deadlines; interleaved rounds so that host noise lands on every program).
const (
	steadyWarmupOps = 50 // untimed
	steadyRounds    = 8
	steadyBatches   = 15
	steadyBatchOps  = 20
	// refPrefixOps is how many leading ops the set-up interprets again as
	// the live reference: the interpreted phase, the compiles at the
	// threshold and the first compiled ops. Later ops are checked against
	// the manifest's frozen interpreter checkpoints.
	refPrefixOps = 30
	// warmupProbeOps is the threshold of the JIT configurations: the
	// first that many ops of a cold start run the op method interpreted.
	warmupProbeOps = 10
	// recompileReps is how often one sample recompiles every program for
	// compile_ms_per_program.
	recompileReps = 5
)

type steadyShape struct{ rounds, batches int }

func steadyShapeFor(scale float64) steadyShape {
	s := steadyShape{rounds: int(steadyRounds*scale + 0.5), batches: steadyBatches}
	if s.rounds < 1 {
		s.rounds = 1
		s.batches = int(steadyRounds*steadyBatches*scale + 0.5)
		if s.batches < 2 {
			s.batches = 2
		}
	}
	return s
}

// steadyProgram is one program on one VM configuration.
type steadyProgram struct {
	g *guest
	// coldMS is source text → warmed-up VM; warmMS the part spent in the
	// first warmupProbeOps ops.
	coldMS, warmMS float64
	// statsAt records Env.Stats after op 20 and op 40, the window the
	// PEA ≤ no-EA allocation check compares across modes.
	statsAt [2]rt.Stats
	// coldGo is the Go runtime's work during the cold start.
	coldGo goDelta
	// batchNS holds the per-op time of every timed batch; timed the guest
	// counters over the timed ops.
	batchNS  []float64
	timed    rt.Stats
	timedOps int
}

// coldStart takes p from source text to a VM that has run warm ops, checking
// the leading ops against ref. It is the set-up of the steady workloads and
// the timed unit of the compile workload; tr, when non-nil, gets a span per
// public call.
func coldStart(tr *tracer, p *Program, opts vm.Options, warm int, ref []uint64, fails *failures) (*steadyProgram, error) {
	sp := &steadyProgram{}
	g0 := readGo()
	start := time.Now()
	var prog *bc.Program
	var g *guest
	var err error
	tr.span("mj.Compile", func() { prog, err = mj.Compile(p.Source, "Main.main") })
	if err != nil {
		return nil, fmt.Errorf("benchmarks: %s: %w", p.Name, err)
	}
	tr.span("vm.New", func() { g, err = newGuestOn(p, prog, opts) })
	if err != nil {
		return nil, err
	}
	sp.g = g
	for i := 0; i < warm; i++ {
		tr.span("vm.Call", func() { err = g.step() })
		if err != nil {
			g.close()
			return nil, err
		}
		if i < len(ref) && g.hash != ref[i] {
			fails.add("%s (%v): op %d differs from the interpreter", p.Name, opts.EA, i)
		}
		switch g.ops {
		case warmupProbeOps:
			sp.warmMS = float64(time.Since(start).Nanoseconds()) / 1e6
		case 20:
			sp.statsAt[0] = g.vm.Env.Stats
		case 40:
			sp.statsAt[1] = g.vm.Env.Stats
		}
	}
	g.vm.DrainJIT()
	sp.coldMS = float64(time.Since(start).Nanoseconds()) / 1e6
	sp.coldGo = readGo().sub(g0)
	if n := g.failedCompiles(); n > 0 {
		fails.add("%s (%v): %d methods failed to compile", p.Name, opts.EA, n)
	}
	return sp, nil
}

func closeAll(sps []*steadyProgram) {
	for _, sp := range sps {
		sp.g.close()
	}
}

func coldStartAll(progs []*Program, refs [][]uint64, mode vm.EAMode, fails *failures) ([]*steadyProgram, error) {
	var sps []*steadyProgram
	for i, p := range progs {
		sp, err := coldStart(nil, p, jitOptions(p, mode, vm.BackendClosure), steadyWarmupOps, refs[i], fails)
		if err != nil {
			closeAll(sps)
			return nil, err
		}
		sps = append(sps, sp)
	}
	return sps, nil
}

// recompile times vm.Compile plus closure lowering, called directly, on every
// method machine has installed: the compiler's whole cost for one program
// with nothing else in the interval.
func recompile(machine *vm.VM) (time.Duration, error) {
	backend := closure.New()
	var total time.Duration
	for _, m := range installedMethods(machine) {
		start := time.Now()
		g, err := machine.Compile(m)
		if err != nil {
			return 0, fmt.Errorf("benchmarks: vm.Compile %s: %w", m.QualifiedName(), err)
		}
		if _, err := backend.Compile(g); err != nil {
			return 0, fmt.Errorf("benchmarks: lowering %s: %w", m.QualifiedName(), err)
		}
		total += time.Since(start)
	}
	return total, nil
}

// steadyRun is the timed rounds over one set of warmed-up programs.
type steadyRun struct {
	progs []*steadyProgram
	// tr, when non-nil, receives a span per op.
	tr   *tracer
	wall time.Duration
	go_  goDelta
}

// timeRounds runs the interleaved timed rounds. With several lanes (the
// traced run compares spans on against spans off, and PEA against no-EA) each
// program visit runs every lane's batches back to back, so the lanes being
// compared see the same host conditions.
func timeRounds(shape steadyShape, seed uint64, lanes ...*steadyRun) error {
	rng := rand.New(rand.NewSource(int64(seed)))
	order := rng.Perm(len(lanes[0].progs))
	for r := 0; r < shape.rounds; r++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, pi := range order {
			for _, lane := range lanes {
				if err := lane.visit(lane.progs[pi], shape.batches); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// visit times batches batches of sp.
func (r *steadyRun) visit(sp *steadyProgram, batches int) error {
	g0 := readGo()
	visitStart := time.Now()
	before := sp.g.vm.Env.Stats
	for b := 0; b < batches; b++ {
		start := time.Now()
		for k := 0; k < steadyBatchOps; k++ {
			t0 := start
			if r.tr != nil {
				t0 = time.Now()
			}
			if err := sp.g.step(); err != nil {
				return err
			}
			if r.tr != nil {
				r.tr.leaf("vm.Call", fmt.Sprintf("%s#%d", sp.g.p.Name, sp.g.ops), t0, time.Now())
			}
		}
		sp.batchNS = append(sp.batchNS, float64(time.Since(start).Nanoseconds())/steadyBatchOps)
	}
	sp.timed = addStats(sp.timed, sp.g.vm.Env.Stats.Sub(before))
	sp.timedOps += batches * steadyBatchOps
	r.wall += time.Since(visitStart)
	r.go_ = r.go_.plus(readGo().sub(g0))
	return nil
}

// verify checks every program's whole output against the frozen interpreter
// checkpoint for its op count, and that nothing fell back to the interpreter.
func (r *steadyRun) verify(fails *failures) {
	for _, sp := range r.progs {
		want, ok := sp.g.p.frozenRef(sp.g.ops)
		if !ok {
			fails.add("%s: the manifest has no interpreter checkpoint at %d ops", sp.g.p.Name, sp.g.ops)
		} else if want != sp.g.hash {
			fails.add("%s: output after %d ops differs from the frozen interpreter checkpoint", sp.g.p.Name, sp.g.ops)
		}
		if n := sp.g.failedCompiles(); n > 0 {
			fails.add("%s: %d methods failed to compile", sp.g.p.Name, n)
		}
	}
}

func addStats(a, b rt.Stats) rt.Stats {
	return rt.Stats{
		Allocations:      a.Allocations + b.Allocations,
		AllocatedBytes:   a.AllocatedBytes + b.AllocatedBytes,
		MonitorOps:       a.MonitorOps + b.MonitorOps,
		FieldLoads:       a.FieldLoads + b.FieldLoads,
		FieldStores:      a.FieldStores + b.FieldStores,
		Deopts:           a.Deopts + b.Deopts,
		Materializations: a.Materializations + b.Materializations,
	}
}

func (r *steadyRun) ops() int {
	n := 0
	for _, sp := range r.progs {
		n += sp.timedOps
	}
	return n
}

// each maps f over the programs.
func (r *steadyRun) each(f func(*steadyProgram) float64) []float64 {
	out := make([]float64, len(r.progs))
	for i, sp := range r.progs {
		out[i] = f(sp)
	}
	return out
}

func (sp *steadyProgram) nsPerOp() float64    { return median(sp.batchNS) }
func (sp *steadyProgram) p90NSPerOp() float64 { return quantile(sp.batchNS, 0.9) }
func (sp *steadyProgram) allocsPerOp() float64 {
	return float64(sp.timed.Allocations) / float64(sp.timedOps)
}
func (sp *steadyProgram) kbPerOp() float64 {
	return float64(sp.timed.AllocatedBytes) / 1024 / float64(sp.timedOps)
}

// ProgramRow is one program's line of a steady workload's report, the input
// of peaperf table1.
type ProgramRow struct {
	Name        string  `json:"name"`
	NSPerOp     float64 `json:"ns_per_op"`
	P90NSPerOp  float64 `json:"p90_ns_per_op"`
	AllocsPerOp float64 `json:"guest_allocs_per_op"`
	KBPerOp     float64 `json:"guest_kb_per_op"`
	Batches     int     `json:"batches"`
}

func (r *steadyRun) rows() []ProgramRow {
	rows := make([]ProgramRow, len(r.progs))
	for i, sp := range r.progs {
		rows[i] = ProgramRow{
			Name: sp.g.p.Name, NSPerOp: sp.nsPerOp(), P90NSPerOp: sp.p90NSPerOp(),
			AllocsPerOp: sp.allocsPerOp(), KBPerOp: sp.kbPerOp(), Batches: len(sp.batchNS),
		}
	}
	return rows
}

// pctDelta is (with − without) / without in percent; 0 when undefined.
func pctDelta(without, with float64) float64 {
	if without == 0 {
		return 0
	}
	return (with - without) / without * 100
}

// checkAllocOrder asserts, per program, that the PEA configuration allocated
// no more than the no-EA configuration over the same window of ops.
func checkAllocOrder(pea, noea []*steadyProgram, fails *failures) {
	for i := range pea {
		a := pea[i].statsAt[1].Sub(pea[i].statsAt[0]).Allocations
		b := noea[i].statsAt[1].Sub(noea[i].statsAt[0]).Allocations
		if a > b {
			fails.add("%s: %d guest allocations under PEA over ops 20–40, %d without escape analysis",
				pea[i].g.p.Name, a, b)
		}
	}
}

func runSteadyWorkload(w *work) error {
	mode, other := vm.EAPartial, vm.EAOff
	if w.cfg.Workload == "steady-noea" {
		mode, other = other, mode
	}
	shape := steadyShapeFor(w.cfg.Scale)
	if w.cfg.Trace {
		// The traced run times the workload twice (spans off, spans on)
		// and the other mode once, so each gets a third of the rounds.
		shape = steadyShapeFor(w.cfg.Scale / 3)
	}

	// The live reference is the harness's own work, not the system's
	// set-up: it is computed once, outside the timed set-up passes.
	if err := w.load(); err != nil {
		return err
	}
	progs, err := w.man.steady()
	if err != nil {
		return err
	}
	refs, err := references(progs, refPrefixOps)
	if err != nil {
		return err
	}
	var sps []*steadyProgram
	// compile_ms_per_program is sampled after every set-up pass and after
	// the timed rounds, so that the fastest repetition is taken over the
	// whole run and not over one window of the host's mood.
	compileMS := map[string][]float64{}
	sampleCompile := func() error {
		for rep := 0; rep < recompileReps; rep++ {
			for _, sp := range sps {
				d, err := recompile(sp.g.vm)
				if err != nil {
					return err
				}
				compileMS[sp.g.p.Name] = append(compileMS[sp.g.p.Name], float64(d.Nanoseconds())/1e6)
			}
		}
		return nil
	}
	for pass := 0; pass < w.setupPasses(); pass++ {
		closeAll(sps)
		err := w.setup(func() (err error) {
			if err = w.load(); err != nil {
				return err
			}
			if progs, err = w.man.steady(); err != nil {
				return err
			}
			sps, err = coldStartAll(progs, refs, mode, &w.fails)
			return err
		})
		if err != nil {
			return err
		}
		if err := sampleCompile(); err != nil {
			return err
		}
	}
	defer func() { closeAll(sps) }()

	// The other configuration's VMs serve the cross-mode allocation check
	// and, in the traced run, the Table-1 deltas. An untraced run creates
	// them only after its timed rounds, so they are not live heap beside
	// the measurement.
	run := &steadyRun{progs: sps}
	lanes := []*steadyRun{run}
	var otherSPs []*steadyProgram
	if w.cfg.Trace {
		tracedSPs, err := coldStartAll(progs, refs, mode, &w.fails)
		if err != nil {
			return err
		}
		defer closeAll(tracedSPs)
		if otherSPs, err = coldStartAll(progs, refs, other, &w.fails); err != nil {
			return err
		}
		lanes = append(lanes, &steadyRun{progs: tracedSPs, tr: w.tr}, &steadyRun{progs: otherSPs})
	}
	if err := timeRounds(shape, w.cfg.Seed, lanes...); err != nil {
		return err
	}
	for _, lane := range lanes {
		lane.verify(&w.fails)
		w.units += lane.ops()
	}
	if err := sampleCompile(); err != nil {
		return err
	}
	if otherSPs == nil {
		if otherSPs, err = coldStartAll(progs, refs, other, &w.fails); err != nil {
			return err
		}
	}
	defer closeAll(otherSPs)
	if mode == vm.EAPartial {
		checkAllocOrder(sps, otherSPs, &w.fails)
	} else {
		checkAllocOrder(otherSPs, sps, &w.fails)
	}

	var perProgram []float64
	for _, p := range progs {
		perProgram = append(perProgram, quantile(compileMS[p.Name], 0))
	}
	batches := len(sps[0].batchNS) * len(sps)
	w.e2e("op_ms", geomean(run.each((*steadyProgram).nsPerOp))/1e6, batches)
	w.e2e("ops_per_s", float64(run.ops())/run.wall.Seconds(), run.ops())
	w.e2e("compile_ms_per_program", geomean(perProgram), len(compileMS[progs[0].Name])*len(progs))
	w.e2e("guest_allocs_per_op", mean(run.each((*steadyProgram).allocsPerOp)), 0)
	w.e2e("guest_kb_per_op", mean(run.each((*steadyProgram).kbPerOp)), 0)
	w.res.Programs = run.rows()
	if !w.cfg.Trace {
		return nil
	}
	return traceSteady(w, mode, lanes[0], lanes[1], lanes[2])
}

// traceSteady reports the per-layer metrics of a steady workload from its
// three interleaved lanes — spans off, spans on, and the other EA mode — and
// from the compile-path and engine probes on the workload's programs.
func traceSteady(w *work, mode vm.EAMode, plain, traced, otherRun *steadyRun) error {
	plainNS := geomean(plain.each((*steadyProgram).nsPerOp))
	w.layer("trace_overhead_pct", pctDelta(plainNS, geomean(traced.each((*steadyProgram).nsPerOp))))
	var inSpans int64
	for _, s := range w.tr.spans {
		inSpans += s.EndNS - s.StartNS
	}
	w.layer("trace_coverage_pct", 100*float64(inSpans)/float64(traced.wall.Nanoseconds()))

	peaRun, noeaRun := plain, otherRun
	if mode == vm.EAOff {
		peaRun, noeaRun = otherRun, plain
	}
	var speed, allocs, kb []float64
	for i := range peaRun.progs {
		p, n := peaRun.progs[i], noeaRun.progs[i]
		speed = append(speed, n.nsPerOp()/p.nsPerOp())
		allocs = append(allocs, pctDelta(n.allocsPerOp(), p.allocsPerOp()))
		kb = append(kb, pctDelta(n.kbPerOp(), p.kbPerOp()))
	}
	w.res.PairedPrograms = otherRun.rows()
	w.layer("pea.speedup_pct", (geomean(speed)-1)*100)
	w.layer("pea.allocs_delta_pct", mean(allocs))
	w.layer("pea.kb_delta_pct", mean(kb))

	w.layer("closure.p90_ns_per_op", geomean(plain.each((*steadyProgram).p90NSPerOp)))
	var timed rt.Stats
	var vmStats vm.Stats
	brokers := &brokerTotals{}
	for _, sp := range plain.progs {
		brokers.add(sp.g.vm)
		timed = addStats(timed, sp.timed)
		w.acc.observe("interp.warmup_ms", sp.g.p.Name, sp.warmMS)
		s := sp.g.vm.Stats()
		vmStats.CompiledMethods += s.CompiledMethods
		vmStats.OSREntries += s.OSREntries
	}
	w.guestLayers(timed, plain.ops())
	w.goLayers(plain.go_, plain.ops())
	w.layer("vm.compiled_methods", float64(vmStats.CompiledMethods))
	w.layer("vm.osr_entries", float64(vmStats.OSREntries))
	brokers.report(w)

	store, cleanup, err := probeStore(w.outDir())
	if err != nil {
		return err
	}
	defer cleanup()
	for _, sp := range plain.progs {
		p := sp.g.p
		if err := probeFrontEnd(w.tr, w.acc, p, jitOptions(p, mode, vm.BackendClosure)); err != nil {
			return err
		}
		if err := probeEngines(w.tr, w.acc, p, mode); err != nil {
			return err
		}
		for pass := 0; pass < probePasses; pass++ {
			if err := probeCompile(w.tr, w.acc, sp.g.vm, p.Name, store, &w.fails); err != nil {
				return err
			}
		}
	}
	w.layersFromAcc()
	return nil
}

// guestLayers reports the rt counters per unit of work.
func (w *work) guestLayers(s rt.Stats, units int) {
	n := float64(units)
	w.layer("rt.monitor_ops_per_op", float64(s.MonitorOps)/n)
	w.layer("rt.field_ops_per_op", float64(s.FieldLoads+s.FieldStores)/n)
	w.layer("rt.materializations_per_op", float64(s.Materializations)/n)
	w.layer("vm.deopts_per_kop", float64(s.Deopts)/n*1000)
}

// brokerTotals sums the counters of the VMs' private brokers.
type brokerTotals struct{ hits, misses, disk, compiled, busyNS, evictions int64 }

func (t *brokerTotals) add(machine *vm.VM) {
	b := machine.Broker()
	s := b.Stats()
	t.hits += s.CacheHits
	t.misses += s.CacheMisses
	t.disk += s.DiskHits
	t.compiled += s.Compiled
	t.busyNS += s.BusyNS
	t.evictions += b.Cache().Evictions()
}

func (t *brokerTotals) report(w *work) {
	if t.hits+t.misses > 0 {
		w.layer("broker.hit_rate", float64(t.hits+t.disk)/float64(t.hits+t.misses))
	}
	w.layer("broker.cache_hits", float64(t.hits))
	w.layer("broker.disk_hits", float64(t.disk))
	w.layer("broker.pipeline_compiles", float64(t.compiled))
	w.layer("broker.busy_ms", float64(t.busyNS)/1e6)
	w.layer("broker.cache_evictions", float64(t.evictions))
}
