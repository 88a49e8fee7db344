package benchmarks

import (
	"math/rand"
	"time"

	"pea/internal/broker"
	"pea/internal/rt"
	"pea/internal/vm"
)

// Compile-workload shape at scale 1: every pass cold-starts each program on a
// fresh VM with a private broker and runs compileOps ops.
const (
	compilePasses = 32
	compileOps    = 20
)

func compileOptions(p *Program) vm.Options {
	o := jitOptions(p, vm.EAPartial, vm.BackendClosure)
	o.OSRThreshold = 1000
	return o
}

// compilePass cold-starts every program once, in order, calling each for
// every warmed-up VM before it is closed.
func compilePass(progs []*Program, refs [][]uint64, order []int, fails *failures, each func(i int, sp *steadyProgram) error) error {
	for _, i := range order {
		p := progs[i]
		sp, err := coldStart(nil, p, compileOptions(p), compileOps, refs[i], fails)
		if err != nil {
			return err
		}
		if each != nil {
			err = each(i, sp)
		}
		sp.g.close()
		if err != nil {
			return err
		}
	}
	return nil
}

func runCompileWorkload(w *work) error {
	passes := int(compilePasses*w.cfg.Scale + 0.5)
	if w.cfg.Trace {
		// A traced pass cold-starts every program twice (spans off, spans
		// on) and replays the compiler three times per method.
		passes /= 4
	}
	if passes < 1 {
		passes = 1
	}
	if err := w.load(); err != nil {
		return err
	}
	progs, err := w.man.compileSet()
	if err != nil {
		return err
	}
	refs, err := references(progs, compileOps)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(int64(w.cfg.Seed)))
	order := rng.Perm(len(progs))

	// Set-up: read and verify the inputs, then one untimed pass so that the
	// Go runtime, the page cache and lazy package state are warm.
	for pass := 0; pass < w.setupPasses(); pass++ {
		err := w.setup(func() (err error) {
			if err = w.load(); err != nil {
				return err
			}
			if progs, err = w.man.compileSet(); err != nil {
				return err
			}
			return compilePass(progs, refs, order, &w.fails, nil)
		})
		if err != nil {
			return err
		}
	}

	var store *broker.Store
	if w.cfg.Trace {
		var cleanup func()
		if store, cleanup, err = probeStore(w.outDir()); err != nil {
			return err
		}
		defer cleanup()
	}
	n := len(progs)
	coldMS := make([][]float64, n)
	compileMS := make([][]float64, n)
	allocs := make([]float64, n)
	kb := make([]float64, n)
	var coldTotal, spanned time.Duration
	var guest rt.Stats
	var vmStats vm.Stats
	brokers := &brokerTotals{}
	var goD goDelta
	for pass := 0; pass < passes; pass++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		err := compilePass(progs, refs, order, &w.fails, func(i int, sp *steadyProgram) error {
			w.units++
			coldMS[i] = append(coldMS[i], sp.coldMS)
			coldTotal += time.Duration(sp.coldMS * 1e6)
			st := sp.g.vm.Env.Stats
			a, b := float64(st.Allocations)/compileOps, float64(st.AllocatedBytes)/1024/compileOps
			if pass > 0 && (a != allocs[i] || b != kb[i]) {
				w.fails.add("%s: guest allocations differ between passes of the same cold start", sp.g.p.Name)
			}
			allocs[i], kb[i] = a, b
			d, err := recompile(sp.g.vm)
			if err != nil {
				return err
			}
			compileMS[i] = append(compileMS[i], float64(d.Nanoseconds())/1e6)
			if !w.cfg.Trace {
				return nil
			}
			p := sp.g.p
			guest = addStats(guest, st)
			goD = goD.plus(sp.coldGo)
			if pass == 0 { // counts of one pass: every pass repeats them exactly
				s := sp.g.vm.Stats()
				vmStats.CompiledMethods += s.CompiledMethods
				vmStats.OSREntries += s.OSREntries
				brokers.add(sp.g.vm)
			}
			w.acc.observe("interp.warmup_ms", p.Name, sp.warmMS)
			// The cold start's own spans: the harness cannot see
			// inside coldStart, so the traced pass repeats it as
			// front end + ops, and then attributes the compiler.
			spanned += w.traceColdStart(p, refs[i])
			if err := probeFrontEnd(w.tr, w.acc, p, compileOptions(p)); err != nil {
				return err
			}
			if pass == 0 {
				if err := probeEngines(w.tr, w.acc, p, vm.EAPartial); err != nil {
					return err
				}
			}
			return probeCompile(w.tr, w.acc, sp.g.vm, p.Name, store, &w.fails)
		})
		if err != nil {
			return err
		}
	}
	perProgram := func(xs [][]float64, q float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = quantile(x, q)
		}
		return out
	}
	w.e2e("op_ms", geomean(perProgram(coldMS, 0.5)), w.units)
	w.e2e("ops_per_s", float64(w.units)/coldTotal.Seconds(), w.units)
	w.e2e("compile_ms_per_program", geomean(perProgram(compileMS, 0)), w.units)
	w.e2e("guest_allocs_per_op", mean(allocs), 0)
	w.e2e("guest_kb_per_op", mean(kb), 0)
	if !w.cfg.Trace {
		return nil
	}

	w.layer("trace_overhead_pct", pctDelta(coldTotal.Seconds(), spanned.Seconds()))
	w.layer("trace_coverage_pct", 100*w.tr.coverage("cold-start"))
	w.guestLayers(guest, w.units*compileOps)
	w.goLayers(goD, w.units)
	w.layer("vm.compiled_methods", float64(vmStats.CompiledMethods))
	w.layer("vm.osr_entries", float64(vmStats.OSREntries))
	brokers.report(w)
	w.layersFromAcc()
	return nil
}

// traceColdStart repeats one cold start with a span around each public call
// (front end, vm.New, set-up, every op) and returns its wall time.
func (w *work) traceColdStart(p *Program, ref []uint64) time.Duration {
	tr := w.tr
	tr.setOp(p.Name)
	defer tr.setOp("")
	tr.begin("cold-start")
	sp, err := coldStart(tr, p, compileOptions(p), compileOps, ref, &w.fails)
	d := tr.end()
	if err != nil {
		w.fails.add("%s: traced cold start: %v", p.Name, err)
		return d
	}
	sp.g.close()
	return d
}
