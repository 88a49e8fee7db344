// Command peavm compiles and runs a MiniJava program on the PEA VM: an
// interpreter with a JIT whose escape analysis configuration is selectable
// (none, flow-insensitive, or the paper's Partial Escape Analysis), with
// optional speculative branch pruning and deoptimization.
//
// Usage:
//
//	peavm [-ea off|ea|pea] [-speculate] [-summaries-report]
//	      [-runs N] [-stats] [-seed S]
//	      [-backend oracle|closure|both]
//	      [-store DIR] [-store-max-bytes N]
//	      [-osr-threshold N] [-jit-async] [-jit-workers N] [-jit-queue-cap N]
//	      [-compile-deadline D] [-max-ir-nodes N] [-crash-dir DIR]
//	      [-check off|basic|strict] [-trace-events out.jsonl] [-metrics]
//	      [-escape-report] [-flight-dump out.jsonl] [-debug-addr host:port]
//	      prog.mj
//
// -backend selects how compiled methods execute: "closure" (the default)
// runs graphs lowered to closure sequences — a template JIT with real
// wall-clock speedups — while "oracle" runs the tree-walking reference
// evaluator the closure backend is checked against.
// "both" runs the program on two VMs, one per backend, in lockstep and
// cross-checks per-run results and errors, printed output, and (in the
// deterministic synchronous configuration) the guest-visible heap effects:
// allocation, monitor, field, deoptimization and rematerialization
// counters. Any divergence is a lowering bug and exits nonzero. Stats and
// observability flags describe the closure VM in this mode.
//
// peavm builds each VM's compile broker itself, from -jit-async,
// -jit-workers, -jit-queue-cap and -store (one broker per VM under
// -backend=both, over one store), and hands it to the VM as Options.JIT. With
// -jit-async hot methods are compiled on background broker workers while the
// interpreter keeps running them (tier-up); the default compiles
// synchronously, which keeps runs deterministic.
//
// With -osr-threshold N a loop that takes N back edges triggers an
// on-stack-replacement compilation: the method is compiled with an
// alternate entry at the loop header and the running interpreter frame is
// transferred into it mid-invocation, so even a single long call tiers up.
//
// The program must define a static Main.main method. Printed values go to
// stdout, one per line. With -stats the VM reports allocation, monitor,
// compilation and deoptimization counters to stderr. With -trace-events
// the full structured event stream of the compiler and VM (phase timings,
// inlining and PEA decisions, deopts, rematerializations) is written as
// JSON lines; with -metrics the metrics registry — a fold of that stream:
// one counter per event kind, named as in the JSONL, and one timer per
// compiler phase — is printed as a table to stderr after the run.
//
// The VM also keeps an always-on ring: a fixed-size in-memory sub-stream of
// the event stream holding the JIT's recent lifecycle (submissions with
// queue depths, compile starts, installs and failures — budget bailouts
// included — panics, OSR, deopts, materializations) at zero allocations per
// record. -flight-dump writes its final contents as JSON lines ('-' for
// stderr), in the -trace-events format, for peastat; on a contained
// compiler panic with -crash-dir set, a dump lands next to the crash
// reproducer automatically.
// -escape-report prints the per-allocation-site escape attribution table
// (the paper's Table 1, per site: virtualized, materialized, remats, lock
// elisions, dominant materialization reason). For a Chrome trace_event
// view (chrome://tracing or Perfetto), convert the -trace-events file with
// `peastat -chrome out.json events.jsonl`. -debug-addr serves all of the
// above live over HTTP
// (/debug/pea/flight, /debug/pea/escape, /debug/pea/metrics,
// /debug/pprof/*) for the duration of the run.
//
// The JIT is fault-contained: a compiler panic is recovered per method
// (the method degrades to interpretation) and, with -crash-dir, captured
// as a minimized JSON reproducer. -compile-deadline and -max-ir-nodes
// bound each compile's wall-clock time and IR size; a budget overrun is a
// transient failure that re-arms the method's hotness trigger with
// exponential backoff, as does a -jit-queue-cap rejection. The PEA_FAULT
// environment variable injects panics or delays at named compile points
// for testing (see internal/broker.FaultFromEnv).
//
// With -check the compiler sanitizer runs between phases: "basic" is the
// structural IR verifier, "strict" additionally proves SSA dominance,
// cross-checks FrameStates against the bytecode verifier's stack shapes,
// and validates virtual-object and OSR metadata. The PEA_CHECK
// environment variable floors the flag, so PEA_CHECK=strict turns any
// invocation strict. The default "off" adds zero compile-time overhead.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/mj"
	"pea/internal/obs"
	"pea/internal/vm"
)

func main() {
	eaMode := flag.String("ea", "pea", "escape analysis: off, ea (flow-insensitive), or pea")
	backendName := flag.String("backend", "closure", "execution backend: oracle (tree-walking reference evaluator), closure (template JIT), or both (lockstep cross-check)")
	speculate := flag.Bool("speculate", false, "enable speculative branch pruning with deoptimization")
	summariesReport := flag.Bool("summaries-report", false, "print the per-method inter-procedural escape summary table (param escape lattice, fresh returns, predicates) to stderr after the run")
	interpret := flag.Bool("interpret", false, "disable the JIT entirely")
	runs := flag.Int("runs", 1, "number of times to run Main.main (later runs execute compiled code)")
	stats := flag.Bool("stats", false, "print VM statistics to stderr")
	seed := flag.Uint64("seed", 1, "PRNG seed for the rand() intrinsic")
	threshold := flag.Int64("threshold", 20, "JIT compile threshold (invocations)")
	osrThreshold := flag.Int64("osr-threshold", 0, "back-edge count triggering on-stack replacement of hot loops (0 = disabled)")
	jitAsync := flag.Bool("jit-async", false, "compile hot methods on background broker workers (tier-up)")
	jitWorkers := flag.Int("jit-workers", 0, "background JIT workers with -jit-async (0 = GOMAXPROCS)")
	jitQueueCap := flag.Int("jit-queue-cap", 0, "bound on the pending JIT compile queue; rejected methods re-arm with backoff (0 = broker default)")
	compileDeadline := flag.Duration("compile-deadline", 0, "per-compile wall-clock budget; overruns degrade the method to the interpreter with backoff (0 = unbounded)")
	maxIRNodes := flag.Int("max-ir-nodes", 0, "per-compile IR node budget checked at phase boundaries (0 = unbounded)")
	crashDir := flag.String("crash-dir", "", "write minimized crash reproducers for contained compiler panics to this directory")
	storeDir := flag.String("store", "", "persistent artifact store directory: compiled graphs are written through and replayed on later runs over the same directory (empty = memory-only cache)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "byte bound on the -store directory's segment files; writes over the bound expel whole segments, oldest first (0 = unbounded)")
	checkMode := flag.String("check", "off", "compiler sanitizer level: off, basic, or strict (floored by PEA_CHECK)")
	traceEvents := flag.String("trace-events", "", "write structured compiler/VM events as JSON lines to this file ('-' for stderr)")
	traceText := flag.Bool("trace-text", false, "also render events human-readably to stderr")
	metrics := flag.Bool("metrics", false, "print the compiler metrics table to stderr after the run")
	escapeReport := flag.Bool("escape-report", false, "print the per-allocation-site escape attribution table to stderr after the run")
	flightDump := flag.String("flight-dump", "", "write the VM's ring as JSON lines to this file after the run ('-' for stderr)")
	debugAddr := flag.String("debug-addr", "", "serve live introspection (/debug/pea/*, /debug/pprof/*) on this address during the run")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: peavm [flags] prog.mj")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	prog, err := mj.Compile(string(src), "Main.main")
	if err != nil {
		fatal(err)
	}

	opts := vm.Options{
		Speculate:        *speculate,
		Interpret:        *interpret,
		Seed:             *seed,
		CompileThreshold: *threshold,
		OSRThreshold:     *osrThreshold,
		CompileDeadline:  *compileDeadline,
		MaxIRNodes:       *maxIRNodes,
		CrashDir:         *crashDir,
	}
	switch *eaMode {
	case "off":
		opts.EA = vm.EAOff
	case "ea":
		opts.EA = vm.EAFlowInsensitive
	case "pea":
		opts.EA = vm.EAPartial
	default:
		fatal(fmt.Errorf("unknown -ea mode %q", *eaMode))
	}
	lvl, err := check.ParseLevel(*checkMode)
	if err != nil {
		fatal(err)
	}
	opts.CheckLevel = lvl
	var store *broker.Store
	if *storeDir != "" {
		if store, err = broker.NewStore(*storeDir); err != nil {
			fatal(err)
		}
		store.SetMaxBytes(*storeMaxBytes)
		defer func() { // after the VMs' brokers, which write through it
			if err := store.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "peavm:", err)
			}
		}()
	}
	// newVM gives a VM the broker the -jit-* and -store flags describe. The
	// broker is this command's to close; the VM only submits to it.
	newVM := func(o vm.Options) *vm.VM {
		workers := 0
		if *jitAsync {
			workers = *jitWorkers
			if workers <= 0 {
				workers = -1 // GOMAXPROCS
			}
		}
		o.JIT = broker.New(broker.Options{
			Workers: workers, QueueCap: *jitQueueCap, Store: store, Check: lvl,
		})
		return vm.New(prog, o)
	}

	// Observability: events to JSONL/text, escape attribution, metrics
	// registry — all backends of one tracing sink.
	var met *obs.Metrics
	var escTable *obs.EscapeTable
	if *traceEvents != "" || *traceText || *metrics ||
		*escapeReport || *debugAddr != "" {
		var backends []obs.Backend
		if *traceEvents != "" {
			var w io.Writer = os.Stderr
			if *traceEvents != "-" {
				f, err := os.Create(*traceEvents)
				if err != nil {
					fatal(err)
				}
				defer f.Close()
				w = f
			}
			backends = append(backends, obs.NewJSONBackend(w))
		}
		if *traceText {
			backends = append(backends, obs.NewTextBackend(os.Stderr))
		}
		if *escapeReport || *debugAddr != "" {
			escTable = obs.NewEscapeTable()
			backends = append(backends, escTable)
		}
		met = obs.NewMetrics()
		met.PublishExpvar()
		opts.Sink = obs.NewSink(append(backends, met)...)
	}

	// Backend selection. In -backend=both mode the closure VM is primary
	// (it owns stdout, stats and observability); a second VM runs the same
	// program on the oracle backend and every observable effect is compared.
	var shadow *vm.VM
	if *backendName == "both" {
		opts.Backend = vm.BackendClosure
		sopts := opts
		sopts.Backend = vm.BackendOracle
		sopts.Sink = nil
		sopts.CrashDir = ""
		shadow = newVM(sopts)
		defer shadow.Broker().Close()
	} else {
		b, err := vm.ParseBackend(*backendName)
		if err != nil {
			fatal(err)
		}
		opts.Backend = b
	}

	machine := newVM(opts)
	defer machine.Broker().Close()
	if *debugAddr != "" {
		ln, err := obs.Serve(*debugAddr, machine.Opts.Sink, escTable, met)
		if err != nil {
			fatal(err)
		}
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "debug endpoint: http://%s/debug/pea/flight\n", ln.Addr())
	}
	for i := 0; i < *runs; i++ {
		v, err := machine.Run()
		if shadow != nil {
			ov, oerr := shadow.Run()
			if (err != nil) != (oerr != nil) {
				fatal(fmt.Errorf("backend divergence on run %d: closure error %v, oracle error %v", i, err, oerr))
			}
			if err == nil && !v.Equal(ov) {
				fatal(fmt.Errorf("backend divergence on run %d: closure result %v, oracle result %v", i, v, ov))
			}
		}
		if err != nil {
			fatal(err)
		}
	}
	machine.DrainJIT()
	if shadow != nil {
		shadow.DrainJIT()
		if err := crossCheck(machine, shadow); err != nil {
			fatal(err)
		}
		fmt.Fprintln(os.Stderr, "backend cross-check: closure matches oracle")
	}
	for _, v := range machine.Env.Output {
		fmt.Println(v)
	}
	if *stats {
		s := machine.Env.Stats
		fmt.Fprintf(os.Stderr, "allocations:      %d (%d bytes)\n", s.Allocations, s.AllocatedBytes)
		fmt.Fprintf(os.Stderr, "monitor ops:      %d\n", s.MonitorOps)
		fmt.Fprintf(os.Stderr, "field loads/stores: %d/%d\n", s.FieldLoads, s.FieldStores)
		fmt.Fprintf(os.Stderr, "materializations: %d\n", s.Materializations)
		fmt.Fprintf(os.Stderr, "deoptimizations:  %d\n", s.Deopts)
		vs := machine.Stats()
		fmt.Fprintf(os.Stderr, "compiled methods: %d (invalidated %d, warm installs %d)\n",
			vs.CompiledMethods, vs.InvalidatedMethods, vs.WarmInstalls)
		fmt.Fprintf(os.Stderr, "osr:              requests %d, compiled %d, entries %d\n",
			vs.OSRRequests, vs.OSRCompilations, vs.OSREntries)
		bs := machine.Broker().Stats()
		fmt.Fprintf(os.Stderr, "jit broker:       submitted %d, compiled %d, cache hits %d/%d, disk hits %d, dedup %d, rejected %d, max queue %d, busy %s\n",
			bs.Submitted, bs.Compiled, bs.CacheHits, bs.CacheHits+bs.CacheMisses, bs.DiskHits, bs.Dedup, bs.Rejected, bs.MaxQueue,
			time.Duration(bs.BusyNS).Round(time.Microsecond))
		if st := machine.Broker().Store(); st != nil {
			ss := st.Stats()
			fmt.Fprintf(os.Stderr, "artifact store:   %s: %d artifacts in %d segments (%d bytes), loads %d hit / %d miss / %d rejected, writes %d (%d failed), expelled %d\n",
				st.Dir(), st.Len(), ss.Segments, ss.Bytes, ss.Hits, ss.Misses, ss.Rejected, ss.Writes, ss.WriteErrors, ss.Expelled)
		}
		for i, ns := range bs.WorkerBusyNS {
			if ns > 0 {
				fmt.Fprintf(os.Stderr, "  jit worker %d:   busy %s\n", i, time.Duration(ns).Round(time.Microsecond))
			}
		}
		if bs.Panics > 0 || vs.TransientFailures > 0 || vs.Rearms > 0 || vs.CrashRepros > 0 {
			fmt.Fprintf(os.Stderr, "jit faults:       panics %d, transient %d, rearms %d, crash repros %d\n",
				bs.Panics, vs.TransientFailures, vs.Rearms, vs.CrashRepros)
		}
		for m, cerr := range machine.FailedCompilations() {
			fmt.Fprintf(os.Stderr, "compile failure:  %s: %v\n", m.QualifiedName(), cerr)
		}
	}
	if *metrics {
		fmt.Fprint(os.Stderr, met.Snapshot().Table())
	}
	if *escapeReport {
		fmt.Fprint(os.Stderr, escTable.Table())
	}
	if *summariesReport {
		fmt.Fprint(os.Stderr, machine.Summaries().Table())
	}
	if *flightDump != "" {
		if *flightDump == "-" {
			if err := machine.Opts.Sink.WriteRing(os.Stderr); err != nil {
				fatal(err)
			}
		} else if err := machine.Opts.Sink.WriteRingFile(*flightDump); err != nil {
			fatal(err)
		}
	}
}

// crossCheck compares everything the guest program could observe between
// the closure-backend VM and its oracle shadow: printed output always, and
// in the deterministic synchronous configuration also the heap-effect
// counters. With -jit-async the install timing of compiled code varies
// between the two VMs, so calls legitimately split differently between
// interpreter and compiled code and the counters are not comparable.
func crossCheck(closure, oracle *vm.VM) error {
	co, oo := closure.Env.Output, oracle.Env.Output
	if len(co) != len(oo) {
		return fmt.Errorf("backend divergence: closure printed %d values, oracle %d", len(co), len(oo))
	}
	for i := range co {
		if co[i] != oo[i] {
			return fmt.Errorf("backend divergence: output[%d] is %d under closure, %d under oracle", i, co[i], oo[i])
		}
	}
	if closure.Broker().Async() {
		return nil
	}
	cs, rs := closure.Env.Stats, oracle.Env.Stats
	for _, c := range []struct {
		name     string
		got, ref int64
	}{
		{"allocations", cs.Allocations, rs.Allocations},
		{"allocated bytes", cs.AllocatedBytes, rs.AllocatedBytes},
		{"monitor ops", cs.MonitorOps, rs.MonitorOps},
		{"field loads", cs.FieldLoads, rs.FieldLoads},
		{"field stores", cs.FieldStores, rs.FieldStores},
		{"deoptimizations", cs.Deopts, rs.Deopts},
		{"materializations", cs.Materializations, rs.Materializations},
	} {
		if c.got != c.ref {
			return fmt.Errorf("backend divergence: %s %d under closure, %d under oracle", c.name, c.got, c.ref)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "peavm:", err)
	os.Exit(1)
}
