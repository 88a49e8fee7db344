// Command peaserve is the multi-tenant PEA VM server: a long-lived HTTP
// process that accepts MiniJava programs, runs each request in its own VM
// (private profile and code table, per-tenant compile budgets, contained
// compiler panics), and shares one JIT across all tenants — one worker
// pool, one bounded in-memory code cache, and, with -store, one
// content-addressed persistent artifact store. Cache keys are content
// fingerprints of the tenant's linked bytecode, so identical programs
// share compiled artifacts across tenants, across restarts, and across
// peaserve processes pointed at the same store directory: a restarted
// server recompiles (approximately) nothing.
//
// The store keeps artifacts as checksummed records in append-only segment
// files. Each process appends to segments of its own (created at its first
// persist, rolled at 64 MiB), so servers sharing a directory never write
// into one file; a server learns of what the others wrote when a lookup
// misses its in-memory index and it rescans the directory. GET /stats
// reports the records, segments and bytes it knows of.
//
// Usage:
//
//	peaserve [-addr host:port] [-store DIR] [-ea off|ea|pea]
//	         [-backend oracle|closure] [-threshold N] [-osr-threshold N]
//	         [-jit-workers N]
//	         [-cache-bytes N] [-compile-deadline D] [-max-ir-nodes N]
//	         [-check off|basic|strict] [-max-source-bytes N] [-max-runs N]
//
// API:
//
//	POST /run     {"source": "<minijava>", "runs": N}
//	              → {"output": [...], "compiled_methods": ..., "pipeline_compiles": ...,
//	                 "warm_installs": ..., "guest_allocs": ..., ...}
//	GET  /stats   → broker/cache/store counters and the two-tier hit rate
//	GET  /healthz → 200 ok
//	GET  /debug/pea/flight → the server's ring as JSON lines (one ring for
//	                         all tenants; feed it to peastat)
//	GET  /debug/pprof/*, /debug/vars → Go profiles and expvar
//
// SIGINT/SIGTERM drains in-flight requests before exiting. Drive it with
// cmd/peaload to measure latency percentiles and cache hit rates.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"pea/internal/check"
	"pea/internal/serve"
	"pea/internal/vm"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8377", "listen address")
	storeDir := flag.String("store", "", "persistent artifact store directory (empty = memory-only cache)")
	storeMaxBytes := flag.Int64("store-max-bytes", 0, "byte bound on the -store directory's segment files; writes over the bound expel whole segments, oldest first (0 = unbounded)")
	eaMode := flag.String("ea", "pea", "escape analysis: off, ea (flow-insensitive), or pea")
	backendName := flag.String("backend", "closure", "execution backend: oracle or closure")
	threshold := flag.Int64("threshold", 20, "JIT compile threshold (invocations)")
	osrThreshold := flag.Int64("osr-threshold", 1000, "back-edge count at which a hot loop is compiled and entered mid-invocation (0 = 1000, negative = off)")
	jitWorkers := flag.Int("jit-workers", 0, "shared background JIT workers (0 = compile on request goroutines)")
	cacheBytes := flag.Int64("cache-bytes", 0, "byte bound on what the in-memory code cache keeps reachable; an artifact charged more than the bound is not kept (0 = 16 MiB)")
	compileDeadline := flag.Duration("compile-deadline", 2*time.Second, "per-tenant compile wall-clock budget (0 = unbounded)")
	maxIRNodes := flag.Int("max-ir-nodes", 200000, "per-tenant compile IR node budget (0 = unbounded)")
	checkMode := flag.String("check", "basic", "sanitizer level for compiles and cache/store loads")
	maxSourceBytes := flag.Int64("max-source-bytes", 1<<20, "request body size bound")
	maxRuns := flag.Int("max-runs", 64, "per-request run count bound")
	flag.Parse()

	opts := serve.Options{
		CompileThreshold: *threshold,
		OSRThreshold:     *osrThreshold,
		CompileDeadline:  *compileDeadline,
		MaxIRNodes:       *maxIRNodes,
		Workers:          *jitWorkers,
		CacheBytes:       *cacheBytes,
		StoreDir:         *storeDir,
		StoreMaxBytes:    *storeMaxBytes,
		MaxSourceBytes:   *maxSourceBytes,
		MaxRuns:          *maxRuns,
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
	backend, err := vm.ParseBackend(*backendName)
	if err != nil {
		fatal(err)
	}
	opts.Backend = backend
	lvl, err := check.ParseLevel(*checkMode)
	if err != nil {
		fatal(err)
	}
	opts.CheckLevel = lvl

	srv, err := serve.New(opts)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		<-stop
		fmt.Fprintln(os.Stderr, "peaserve: draining...")
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "peaserve: shutdown:", err)
		}
		srv.Close()
		close(done)
	}()

	where := "memory-only"
	if *storeDir != "" {
		where = "store " + *storeDir
	}
	fmt.Fprintf(os.Stderr, "peaserve: listening on %s (%s, %s backend, %s)\n",
		*addr, *eaMode, *backendName, where)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	<-done
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "peaserve:", err)
	os.Exit(1)
}
