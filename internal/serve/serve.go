// Package serve is the multi-tenant VM server behind cmd/peaserve: a
// long-lived HTTP front end that accepts MiniJava programs, runs each
// tenant in its own VM — private code table, private profile, per-tenant
// compile budgets, the PR-5 fault containment — while every tenant shares
// one compile broker: one worker pool, one bounded in-memory code cache,
// and one content-addressed persistent artifact store. Because cache keys
// are content fingerprints, two tenants posting the same program share
// compiled artifacts, and a restarted server warm-starts from the store
// directory instead of recompiling its working set. Tenant compiles never
// speculate, so their cache keys carry no profile: once a program's hot
// methods and loops are in the cache, a later request's fresh VM installs
// them at first call / first back edge and interprets almost nothing.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"pea/internal/bc"
	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/mj"
	"pea/internal/obs"
	"pea/internal/vm"
)

// Options configures a Server.
type Options struct {
	// EA selects the escape-analysis configuration tenants compile under.
	EA vm.EAMode
	// Backend selects the execution backend tenant code runs on. The zero
	// value is vm.BackendOracle, as in vm.Options; the peaserve command
	// passes vm.BackendClosure unless told otherwise.
	Backend vm.Backend
	// CompileThreshold is the tenant VMs' hotness threshold (0 = vm default).
	CompileThreshold int64
	// OSRThreshold is the back-edge count at which a tenant's hot loop is
	// compiled and entered mid-invocation (vm.Options.OSRThreshold). A
	// request is a fresh VM making a handful of calls, so a loop inside
	// Main.main never tiers up at a call boundary; OSR is what gets it out
	// of the interpreter, and what puts its code into the shared cache for
	// the next request's first back edge. 0 selects 1000; negative turns
	// OSR off.
	OSRThreshold int64
	// CompileDeadline and MaxIRNodes are the per-tenant compile budgets: a
	// tenant whose program drives a compile past either bound degrades that
	// method to interpretation (transient failure, backoff) without
	// affecting other tenants sharing the worker pool.
	CompileDeadline time.Duration
	MaxIRNodes      int
	// CheckLevel is the sanitizer level for tenant compiles and for
	// re-verification of artifacts crossing the cache/store boundary.
	CheckLevel check.Level
	// Workers sizes the shared broker's background pool. 0 compiles
	// synchronously on request goroutines — still shared-cache, still
	// concurrent across tenants, and deterministic per tenant.
	Workers int
	// CacheBytes bounds the shared in-memory code cache by the bytes its
	// artifacts keep reachable (0 = broker.DefaultCacheBytes).
	CacheBytes int64
	// StoreDir, when non-empty, backs the shared cache with a persistent
	// artifact store rooted there. Restarting the server on the same
	// directory replays persisted artifacts instead of recompiling.
	StoreDir string
	// StoreMaxBytes bounds the store directory's total size; a write that
	// takes it over the bound expels whole segments, oldest first
	// (0 = unbounded).
	StoreMaxBytes int64
	// MaxSourceBytes bounds a request body (default 1 MiB).
	MaxSourceBytes int64
	// MaxRuns bounds the per-request run count (default 64).
	MaxRuns int
}

// osrThreshold is the value handed to vm.Options, where <= 0 means off.
func (o Options) osrThreshold() int64 {
	if o.OSRThreshold == 0 {
		return 1000
	}
	return o.OSRThreshold
}

func (o Options) maxSourceBytes() int64 {
	if o.MaxSourceBytes > 0 {
		return o.MaxSourceBytes
	}
	return 1 << 20
}

func (o Options) maxRuns() int {
	if o.MaxRuns > 0 {
		return o.MaxRuns
	}
	return 64
}

// maxPrograms bounds the linked-program memo. Tenants posting
// byte-identical sources share one immutable *bc.Program.
const maxPrograms = 128

// Server shares one broker across tenant VMs and serves the HTTP API:
//
//	POST /run              {"source": "...", "runs": N} → RunResponse
//	GET  /stats            → StatsResponse
//	GET  /healthz          → 200 "ok"
//	GET  /debug/pea/flight → the ring as JSON lines
//	GET  /debug/pprof/*, /debug/vars → Go profiles and expvar
type Server struct {
	opts  Options
	jit   *broker.Broker
	store *broker.Store
	mux   *http.ServeMux
	// sink is the one ring of the process, which does not trace: every
	// request VM, and the broker's work for it, records there, each program
	// through its own view (linked.sink).
	sink *obs.Sink

	progMu    sync.Mutex
	progs     map[uint64]*linked
	progClock int64 // logical time of the last memo use

	tenants      atomic.Int64 // requests served (each is one tenant VM)
	active       atomic.Int64 // requests currently executing
	panicked     atomic.Int64 // handler panics contained (server stayed up)
	badSource    atomic.Int64 // requests rejected at the front door
	warmInstalls atomic.Int64 // vm.Stats.WarmInstalls summed over requests
}

// linked is one memoized tenant program with what the server keeps per
// program rather than per request.
type linked struct {
	prog *bc.Program
	// sink is the program's view of the server's sink; its method-name
	// table is built once here, not in every request's vm.New.
	sink *obs.Sink
	used int64 // progClock at the last request for this program
}

// New creates a Server. The store directory is opened (and created) up
// front so a misconfigured path fails at startup, not per request.
func New(opts Options) (*Server, error) {
	var store *broker.Store
	if opts.StoreDir != "" {
		var err error
		if store, err = broker.NewStore(opts.StoreDir); err != nil {
			return nil, err
		}
		store.SetMaxBytes(opts.StoreMaxBytes)
	}
	cacheMax := opts.CacheBytes
	if cacheMax == 0 {
		cacheMax = broker.DefaultCacheBytes
	}
	s := &Server{
		opts:  opts,
		store: store,
		sink:  obs.NewRing(),
		jit: broker.New(broker.Options{
			Workers: opts.Workers,
			Cache:   broker.NewCacheSize(cacheMax),
			Store:   store,
			Check:   opts.CheckLevel,
		}),
		progs: make(map[uint64]*linked),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/run", s.handleRun)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.Handle("/debug/", obs.Handler(s.sink, nil, nil))
	s.mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	return s, nil
}

// ServeHTTP implements http.Handler with a panic boundary per request: a
// bug escaping the broker's per-compile containment kills the request, not
// the server (and not the other tenants).
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			s.panicked.Add(1)
			http.Error(w, fmt.Sprintf("internal error: %v", rec), http.StatusInternalServerError)
			fmt.Fprintf(os.Stderr, "serve: contained handler panic: %v\n%s", rec, debug.Stack())
		}
	}()
	s.mux.ServeHTTP(w, r)
}

// Close shuts down the shared broker (drains background workers) and then
// the store under it. In-flight HTTP requests are the http.Server's to
// drain.
func (s *Server) Close() {
	s.jit.Close()
	if err := s.store.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "serve: %v\n", err)
	}
}

// Broker exposes the shared broker for tests and stats tooling.
func (s *Server) Broker() *broker.Broker { return s.jit }

// RunRequest is the POST /run payload.
type RunRequest struct {
	// Source is a MiniJava program with a static Main.main.
	Source string `json:"source"`
	// Runs is how many times to invoke Main.main (default 1). Later runs
	// execute whatever the JIT has installed.
	Runs int `json:"runs"`
}

// RunResponse reports one tenant's execution.
type RunResponse struct {
	// Output is everything the program printed, across all runs.
	Output []int64 `json:"output"`
	Runs   int     `json:"runs"`
	// CompiledMethods counts methods the tenant's VM installed (from the
	// pipeline or either cache tier); PipelineCompiles counts how many of
	// this request's submissions actually ran the pipeline (0 on a fully
	// warm cache).
	CompiledMethods  int64 `json:"compiled_methods"`
	PipelineCompiles int64 `json:"pipeline_compiles"`
	// WarmInstalls counts code this request's VM installed from the shared
	// cache before it was hot — at a method's first call or a loop's first
	// back edge — instead of interpreting up to the threshold first.
	WarmInstalls int64 `json:"warm_installs"`
	// FailedCompiles counts methods that permanently failed to compile and
	// degraded to interpretation (contained panics included).
	FailedCompiles int `json:"failed_compiles"`
	// GuestAllocs is the number of guest objects and arrays the tenant
	// program allocated over all runs (rt.Stats.Allocations): what scalar
	// replacement removes is visible here.
	GuestAllocs int64 `json:"guest_allocs"`
	// WallNS is the server-side execution time of all runs.
	WallNS int64 `json:"wall_ns"`
}

// StatsResponse is the GET /stats payload.
type StatsResponse struct {
	Tenants  int64 `json:"tenants"`
	Active   int64 `json:"active"`
	Panicked int64 `json:"panicked"`
	Rejected int64 `json:"rejected_requests"`
	Programs int   `json:"programs"`
	// WarmInstalls sums RunResponse.WarmInstalls over all requests.
	WarmInstalls int64              `json:"warm_installs"`
	Broker       broker.Stats       `json:"broker"`
	Store        *broker.StoreStats `json:"store,omitempty"`
	// HitRate is the fraction of submissions resolved without a pipeline
	// run, over both cache tiers: (CacheHits+DiskHits)/(CacheHits+CacheMisses).
	HitRate      float64 `json:"hit_rate"`
	CacheEntries int     `json:"cache_entries"`
	// CacheBytes is the sum of the cached artifacts' charges, which the
	// cache keeps within Options.CacheBytes.
	CacheBytes     int64 `json:"cache_bytes"`
	CacheEvictions int64 `json:"cache_evictions"`
	StoreArtifacts int   `json:"store_artifacts,omitempty"`
}

// program links source, memoized by content hash so identical tenant
// programs share one immutable *bc.Program (and therefore hit the shared
// cache without rebinding). The memo is bounded; a new program evicts the
// single least-recently-used one, so a burst of one-off programs cannot
// make the hot tenants relink.
func (s *Server) program(source string) (*linked, error) {
	h := fnv.New64a()
	h.Write([]byte(source))
	key := h.Sum64()
	s.progMu.Lock()
	if l, ok := s.progs[key]; ok {
		s.progClock++
		l.used = s.progClock
		s.progMu.Unlock()
		return l, nil
	}
	s.progMu.Unlock()

	p, err := mj.Compile(source, "Main.main")
	if err != nil {
		return nil, err
	}
	s.progMu.Lock()
	defer s.progMu.Unlock()
	s.progClock++
	if l, ok := s.progs[key]; ok {
		// A concurrent request linked the same source first; share its link.
		l.used = s.progClock
		return l, nil
	}
	if len(s.progs) >= maxPrograms {
		var victim uint64
		oldest := int64(-1)
		for k, l := range s.progs {
			if oldest < 0 || l.used < oldest {
				victim, oldest = k, l.used
			}
		}
		s.progs[victim].sink.Release()
		delete(s.progs, victim)
	}
	l := &linked{prog: p, sink: s.sink.Program(vm.MethodNames(p)), used: s.progClock}
	s.progs[key] = l
	return l, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var req RunRequest
	body := http.MaxBytesReader(w, r.Body, s.opts.maxSourceBytes())
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.badSource.Add(1)
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, "source too large", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if req.Runs <= 0 {
		req.Runs = 1
	}
	if req.Runs > s.opts.maxRuns() {
		s.badSource.Add(1)
		http.Error(w, fmt.Sprintf("runs capped at %d", s.opts.maxRuns()), http.StatusBadRequest)
		return
	}
	l, err := s.program(req.Source)
	if err != nil {
		s.badSource.Add(1)
		http.Error(w, "compile error: "+err.Error(), http.StatusBadRequest)
		return
	}

	s.tenants.Add(1)
	s.active.Add(1)
	defer s.active.Add(-1)

	machine := vm.New(l.prog, vm.Options{
		EA:               s.opts.EA,
		Backend:          s.opts.Backend,
		CompileThreshold: s.opts.CompileThreshold,
		OSRThreshold:     s.opts.osrThreshold(),
		CompileDeadline:  s.opts.CompileDeadline,
		MaxIRNodes:       s.opts.MaxIRNodes,
		CheckLevel:       s.opts.CheckLevel,
		JIT:              s.jit,
		Sink:             l.sink,
	})
	defer machine.Close()

	start := time.Now()
	for i := 0; i < req.Runs; i++ {
		if _, err := machine.Run(); err != nil {
			http.Error(w, fmt.Sprintf("run %d: %v", i, err), http.StatusUnprocessableEntity)
			return
		}
	}
	machine.DrainJIT()
	wall := time.Since(start)

	vs := machine.Stats()
	s.warmInstalls.Add(vs.WarmInstalls)
	resp := RunResponse{
		Output:           append([]int64(nil), machine.Env.Output...),
		Runs:             req.Runs,
		CompiledMethods:  vs.CompiledMethods,
		PipelineCompiles: vs.PipelineCompiles,
		WarmInstalls:     vs.WarmInstalls,
		FailedCompiles:   len(machine.FailedCompilations()),
		GuestAllocs:      machine.Env.Stats.Allocations,
		WallNS:           wall.Nanoseconds(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(&resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(s.statsLocked())
}

func (s *Server) statsLocked() StatsResponse {
	bs := s.jit.Stats()
	resp := StatsResponse{
		Tenants:        s.tenants.Load(),
		Active:         s.active.Load(),
		Panicked:       s.panicked.Load(),
		Rejected:       s.badSource.Load(),
		WarmInstalls:   s.warmInstalls.Load(),
		Broker:         bs,
		CacheEntries:   s.jit.Cache().Len(),
		CacheBytes:     s.jit.Cache().Bytes(),
		CacheEvictions: s.jit.Cache().Evictions(),
	}
	s.progMu.Lock()
	resp.Programs = len(s.progs)
	s.progMu.Unlock()
	if lookups := bs.CacheHits + bs.CacheMisses; lookups > 0 {
		resp.HitRate = float64(bs.CacheHits+bs.DiskHits) / float64(lookups)
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Store = &st
		resp.StoreArtifacts = s.store.Len()
	}
	return resp
}
