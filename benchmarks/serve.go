package benchmarks

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"io/fs"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pea/internal/bc"
	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/mj"
	"pea/internal/rt"
	"pea/internal/serve"
	"pea/internal/vm"
)

// Serve-workload shape at scale 1.
const (
	serveRuns        = 3 // "runs" of every request
	serveWarmTimed   = 12000
	serveWarmUntimed = 200
	serveColdTimed   = 6000
	serveColdUntimed = 100
)

// serveOptions are cmd/peaserve's flag defaults plus a store directory.
func serveOptions(storeDir string) serve.Options {
	return serve.Options{
		EA: vm.EAPartial, Backend: vm.BackendClosure, CompileThreshold: 20,
		CompileDeadline: 2 * time.Second, MaxIRNodes: 200000, CheckLevel: check.Basic,
		StoreDir: storeDir, MaxSourceBytes: 1 << 20, MaxRuns: 64,
	}
}

// tenantVMOptions is what serve.handleRun passes to vm.New under
// serveOptions; jit is the shared broker (nil for a private one).
func tenantVMOptions(jit *broker.Broker) vm.Options {
	o := serveOptions("")
	return vm.Options{
		EA: o.EA, Backend: o.Backend, CompileThreshold: o.CompileThreshold,
		CompileDeadline: o.CompileDeadline, MaxIRNodes: o.MaxIRNodes, CheckLevel: o.CheckLevel, JIT: jit,
	}
}

// request is one POST /run of (a variant of) tenant program number tenant,
// with the output the interpreter says it must have.
type request struct {
	tenant int
	body   []byte
	want   []int64
}

// tenantReference runs p's Main.main serveRuns times on the interpreter-only
// VM, with the server's (default) guest seed.
func tenantReference(p *Program) ([]int64, error) {
	prog, err := mj.Compile(p.Source, "Main.main")
	if err != nil {
		return nil, err
	}
	machine := vm.New(prog, vm.Options{Interpret: true})
	defer machine.Close()
	for i := 0; i < serveRuns; i++ {
		if _, err := machine.Run(); err != nil {
			return nil, fmt.Errorf("benchmarks: reference run of %s: %w", p.Name, err)
		}
	}
	return machine.Env.Output, nil
}

func encodeRequest(tenant int, source string, want []int64) request {
	body, _ := json.Marshal(serve.RunRequest{Source: source, Runs: serveRuns}) // strings and ints always encode
	return request{tenant: tenant, body: body, want: want}
}

// makeRequests builds n requests in seeded order. Warm requests repeat the
// tenant programs verbatim (the first len(tenants) cover each once, so the
// set-up compiles everything); cold requests append a class no earlier
// request had, which changes the source hash and the whole-program
// fingerprint but not the output.
func makeRequests(tenants []*Program, refs [][]int64, n int, cold bool, rng *rand.Rand, tag string) []request {
	reqs := make([]request, n)
	for i := range reqs {
		t := rng.Intn(len(tenants))
		if !cold && i < len(tenants) {
			t = i
		}
		src := tenants[t].Source
		if cold {
			src += fmt.Sprintf("\nclass Cold_%s_%d { static int pad() { return %d; } }\n", tag, i, rng.Intn(1<<20))
		}
		reqs[i] = encodeRequest(t, src, refs[t])
	}
	return reqs
}

// server is an in-process peaserve on a loopback listener.
type server struct {
	srv      *serve.Server
	http     *http.Server
	url      string
	storeDir string
	done     chan struct{}
}

func startServer(outDir string) (*server, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	storeDir, err := os.MkdirTemp(outDir, "serve-store-")
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serveOptions(storeDir))
	if err != nil {
		os.RemoveAll(storeDir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(storeDir)
		return nil, err
	}
	s := &server{srv: srv, http: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(),
		storeDir: storeDir, done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	return s, nil
}

// stop drains the listener, closes the broker and removes the store.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.http.Shutdown(ctx)
	<-s.done
	s.srv.Close()
	os.RemoveAll(s.storeDir)
}

// loadResult is one closed-loop load phase.
type loadResult struct {
	latMS []float64 // per request, in request order
	runNS []float64 // RunResponse.wall_ns per request
	wall  time.Duration
}

// drive sends reqs through clients closed-loop tenants (each waits for its
// reply before sending its next request) and checks every reply.
func (s *server) drive(reqs []request, clients int, fails *failures) loadResult {
	res := loadResult{latMS: make([]float64, len(reqs)), runNS: make([]float64, len(reqs))}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 60 * time.Second}
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				resp, err := client.Post(s.url+"/run", "application/json", bytes.NewReader(reqs[i].body))
				var body []byte
				if err == nil {
					body, err = io.ReadAll(resp.Body)
					resp.Body.Close()
				}
				res.latMS[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
				why := ""
				var rr serve.RunResponse
				switch {
				case err != nil:
					why = err.Error()
				case resp.StatusCode != http.StatusOK:
					why = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
				case json.Unmarshal(body, &rr) != nil:
					why = "undecodable reply"
				case rr.FailedCompiles != 0:
					why = fmt.Sprintf("%d failed compiles", rr.FailedCompiles)
				case !equalOutput(rr.Output, reqs[i].want):
					why = "output differs from the interpreter"
				}
				res.runNS[i] = float64(rr.WallNS)
				if why != "" {
					mu.Lock()
					fails.add("request %d: %s", i, why)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

func equalOutput(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (s *server) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	resp, err := http.Get(s.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// dirMB is the total size of the regular files under dir, in MiB.
func dirMB(dir string) float64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return float64(total) / (1 << 20)
}

// replayServer replays serve.handleRun's steps on one goroutine — decode,
// link through a source-hash memo, vm.New on a shared broker, run, encode —
// so that each step can carry a span and the tenant's rt counters are
// visible, which HTTP does not expose.
type replayServer struct {
	jit   *broker.Broker
	dir   string
	progs map[uint64]*bc.Program

	guest   rt.Stats
	vmStats vm.Stats
}

func newReplayServer(outDir string) (*replayServer, error) {
	dir, err := os.MkdirTemp(outDir, "replay-store-")
	if err != nil {
		return nil, err
	}
	store, err := broker.NewStore(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &replayServer{
		jit: broker.New(broker.Options{Cache: broker.NewCacheSize(broker.DefaultCacheEntries),
			Store: store, Check: check.Basic}),
		dir: dir, progs: map[uint64]*bc.Program{},
	}, nil
}

func (rs *replayServer) close() {
	rs.jit.Close()
	os.RemoveAll(rs.dir)
}

// handle serves one request; tr may be nil.
func (rs *replayServer) handle(tr *tracer, id string, r request, fails *failures) time.Duration {
	if tr != nil {
		tr.setOp(id)
		tr.begin("request")
	}
	start := time.Now()
	var req serve.RunRequest
	var err error
	tr.span("serve.decode", func() { err = json.Unmarshal(r.body, &req) })
	var prog *bc.Program
	if err == nil {
		tr.span("serve.link", func() {
			h := fnv.New64a()
			h.Write([]byte(req.Source))
			key := h.Sum64()
			if prog = rs.progs[key]; prog == nil {
				if prog, err = mj.Compile(req.Source, "Main.main"); err == nil {
					if len(rs.progs) >= 128 { // serve.Options.MaxPrograms default
						rs.progs = map[uint64]*bc.Program{}
					}
					rs.progs[key] = prog
				}
			}
		})
	}
	if err == nil {
		var machine *vm.VM
		tr.span("vm.New", func() { machine = vm.New(prog, tenantVMOptions(rs.jit)) })
		tr.span("vm.Run", func() {
			for i := 0; i < req.Runs && err == nil; i++ {
				_, err = machine.Run()
			}
			machine.DrainJIT()
		})
		resp := serve.RunResponse{Output: machine.Env.Output, Runs: req.Runs,
			CompiledMethods: machine.Stats().CompiledMethods, FailedCompiles: len(machine.FailedCompilations())}
		tr.span("serve.encode", func() { _, err = json.Marshal(&resp) })
		rs.guest = addStats(rs.guest, machine.Env.Stats)
		rs.vmStats.CompiledMethods += resp.CompiledMethods
		rs.vmStats.OSREntries += machine.Stats().OSREntries
		if err == nil && (resp.FailedCompiles != 0 || !equalOutput(resp.Output, r.want)) {
			err = fmt.Errorf("output differs from the interpreter or a compile failed")
		}
		machine.Close()
	}
	d := time.Since(start)
	if tr != nil {
		tr.end()
		tr.setOp("")
	}
	if err != nil {
		fails.add("replayed %s: %v", id, err)
	}
	return d
}

// sampleReps is how often one tenantSampler.sample recompiles every program.
const sampleReps = 5

// tenantSampler holds one in-process VM per tenant program, configured like
// the server's tenants and run once, for what HTTP does not expose: the
// guest allocations and KB per Main.main run, and — as on the other
// workloads — the time of vm.Compile plus lowering called directly on every
// installed method. The workload samples it after every set-up pass and
// after the load, so that the fastest repetition is taken over the whole
// run and not over one 50 ms window of the host's mood.
type tenantSampler struct {
	sps []*steadyProgram
	ms  [][]float64
}

func newTenantSampler(tenants []*Program, cold bool, fails *failures) (*tenantSampler, error) {
	t := &tenantSampler{ms: make([][]float64, len(tenants))}
	for _, p := range tenants {
		variant := *p
		if cold {
			variant.Source += "\nclass Cold_sample { static int pad() { return 0; } }\n"
		}
		sp, err := coldStart(nil, &variant, tenantVMOptions(nil), serveRuns, nil, fails)
		if err != nil {
			t.close()
			return nil, err
		}
		t.sps = append(t.sps, sp)
	}
	return t, nil
}

func (t *tenantSampler) close() { closeAll(t.sps) }

func (t *tenantSampler) sample() error {
	for rep := 0; rep < sampleReps; rep++ {
		for i, sp := range t.sps {
			d, err := recompile(sp.g.vm)
			if err != nil {
				return err
			}
			t.ms[i] = append(t.ms[i], float64(d.Nanoseconds())/1e6)
		}
	}
	return nil
}

// result returns guest allocations and KB per run and the geomean over
// programs of the fastest recompilation.
func (t *tenantSampler) result() (allocs, kb, compileMS float64) {
	var guest rt.Stats
	fastest := make([]float64, len(t.sps))
	for i, sp := range t.sps {
		guest = addStats(guest, sp.g.vm.Env.Stats)
		fastest[i] = quantile(t.ms[i], 0)
	}
	runs := float64(len(t.sps) * serveRuns)
	return float64(guest.Allocations) / runs, float64(guest.AllocatedBytes) / 1024 / runs, geomean(fastest)
}

func runServeWorkload(w *work) error {
	cold := w.cfg.Workload == "serve-cold"
	timed, untimed := serveWarmTimed, serveWarmUntimed
	if cold {
		timed, untimed = serveColdTimed, serveColdUntimed
	}
	scale := w.cfg.Scale
	if w.cfg.Trace {
		scale /= 2 // the traced run also replays the requests twice in process
	}
	timed = int(float64(timed)*scale + 0.5)
	untimed = int(float64(untimed)*scale + 0.5)
	if timed < 40 {
		timed = 40
	}
	if untimed < len(tenantSet) {
		untimed = len(tenantSet)
	}
	clients := runtime.GOMAXPROCS(0)

	if err := w.load(); err != nil {
		return err
	}
	tenants, err := w.man.named(tenantSet)
	if err != nil {
		return err
	}
	refs := make([][]int64, len(tenants))
	for i, p := range tenants {
		if refs[i], err = tenantReference(p); err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(int64(w.cfg.Seed)))
	sampler, err := newTenantSampler(tenants, cold, &w.fails)
	if err != nil {
		return err
	}
	defer sampler.close()

	// Set-up: read and verify the inputs, start the server on a fresh
	// store, and send the untimed requests (warm: they fill the memo and
	// the cache; cold: they warm the Go runtime and the HTTP path).
	var srv *server
	for pass := 0; pass < w.setupPasses(); pass++ {
		if srv != nil {
			srv.stop()
		}
		warmup := makeRequests(tenants, refs, untimed, cold, rng, fmt.Sprintf("s%d_u%d", w.cfg.Seed, pass))
		err := w.setup(func() (err error) {
			if err = w.load(); err != nil {
				return err
			}
			if srv, err = startServer(w.outDir()); err != nil {
				return err
			}
			srv.drive(warmup, clients, &w.fails)
			return nil
		})
		if err != nil {
			return err
		}
		w.units += untimed
		if err := sampler.sample(); err != nil {
			return err
		}
	}
	defer func() { srv.stop() }()

	reqs := makeRequests(tenants, refs, timed, cold, rng, fmt.Sprintf("s%d_t", w.cfg.Seed))
	before := srv.srv.Broker().Stats()
	g0 := readGo()
	load := srv.drive(reqs, clients, &w.fails)
	goD := readGo().sub(g0)
	after := srv.srv.Broker().Stats()
	w.units += timed

	if err := sampler.sample(); err != nil {
		return err
	}
	allocsPerOp, kbPerOp, compileMS := sampler.result()

	// The tenants' costs differ tenfold, so a percentile of the pooled
	// latencies would sit between two programs' clusters and jump with the
	// seeded mix; percentiles are taken per program and then averaged.
	perTenant := make([][]float64, len(tenants))
	for i, r := range reqs {
		perTenant[r.tenant] = append(perTenant[r.tenant], load.latMS[i])
	}
	var p50, p95 []float64
	for _, lat := range perTenant {
		p50 = append(p50, quantile(lat, 0.5))
		p95 = append(p95, quantile(lat, 0.95))
	}
	w.e2e("op_ms", geomean(p50), timed)
	w.layer("serve.p95_ms", geomean(p95))
	w.e2e("ops_per_s", float64(timed)/load.wall.Seconds(), timed)
	w.e2e("compile_ms_per_program", compileMS, len(sampler.ms[0])*len(tenants))
	w.e2e("guest_allocs_per_op", allocsPerOp, 0)
	w.e2e("guest_kb_per_op", kbPerOp, 0)
	if !w.cfg.Trace {
		return nil
	}
	return traceServe(w, srv, tenants, reqs, load, goD, before, after)
}

// traceServe is the traced half of a serve workload: the server's own
// counters, then the same requests replayed in process with and without
// spans, then the compile-path and engine probes on the tenant programs.
func traceServe(w *work, srv *server, tenants []*Program, reqs []request, load loadResult,
	goD goDelta, before, after broker.Stats) error {
	st, err := srv.stats()
	if err != nil {
		return err
	}
	runUS := mean(load.runNS) / 1e3
	w.layer("serve.run_us", runUS)
	w.layer("serve.http_us", mean(load.latMS)*1e3-runUS)
	w.layer("serve.programs_memo", float64(st.Programs))
	w.layer("serve.rejected", float64(st.Rejected))
	w.layer("broker.hit_rate", st.HitRate)
	w.layer("broker.cache_hits", float64(after.CacheHits-before.CacheHits))
	w.layer("broker.disk_hits", float64(after.DiskHits-before.DiskHits))
	w.layer("broker.pipeline_compiles", float64(after.Compiled-before.Compiled))
	w.layer("broker.busy_ms", float64(after.BusyNS-before.BusyNS)/1e6)
	w.layer("broker.cache_evictions", float64(st.CacheEvictions))
	w.layer("broker.store_artifacts", float64(st.StoreArtifacts))
	w.layer("broker.store_mb", dirMB(srv.storeDir))
	w.goLayers(goD, len(reqs))

	// Two replay servers take every request in turn, one without spans
	// and one with, so the overhead is measured under the same host
	// conditions.
	replayed := reqs[:len(reqs)/2]
	plainRS, err := newReplayServer(w.outDir())
	if err != nil {
		return err
	}
	defer plainRS.close()
	tracedRS, err := newReplayServer(w.outDir())
	if err != nil {
		return err
	}
	defer tracedRS.close()
	var plainWall, tracedWall time.Duration
	for i, r := range replayed {
		id := fmt.Sprintf("req#%d", i)
		plainWall += plainRS.handle(nil, id, r, &w.fails)
		tracedWall += tracedRS.handle(w.tr, id, r, &w.fails)
	}
	w.units += 2 * len(replayed)
	w.guestLayers(tracedRS.guest, len(replayed))
	w.layer("vm.compiled_methods", float64(tracedRS.vmStats.CompiledMethods))
	w.layer("vm.osr_entries", float64(tracedRS.vmStats.OSREntries))
	w.layer("trace_overhead_pct", pctDelta(plainWall.Seconds(), tracedWall.Seconds()))
	w.layer("trace_coverage_pct", 100*w.tr.coverage("request"))
	perRequest := func(name string) float64 {
		var total int64
		for _, s := range w.tr.spans {
			if s.Name == name {
				total += s.EndNS - s.StartNS
			}
		}
		return float64(total) / 1e3 / float64(len(replayed))
	}
	w.layer("serve.decode_us", perRequest("serve.decode"))
	w.layer("serve.link_us", perRequest("serve.link"))
	w.layer("serve.encode_us", perRequest("serve.encode"))

	store, cleanup, err := probeStore(w.outDir())
	if err != nil {
		return err
	}
	defer cleanup()
	for _, p := range tenants {
		opts := tenantVMOptions(nil)
		if err := probeFrontEnd(w.tr, w.acc, p, opts); err != nil {
			return err
		}
		if err := probeEngines(w.tr, w.acc, p, opts.EA); err != nil {
			return err
		}
		sp, err := coldStart(nil, p, opts, serveRuns, nil, &w.fails)
		if err != nil {
			return err
		}
		w.acc.observe("interp.warmup_ms", p.Name, sp.coldMS)
		for pass := 0; pass < probePasses && err == nil; pass++ {
			err = probeCompile(w.tr, w.acc, sp.g.vm, p.Name, store, &w.fails)
		}
		sp.g.close()
		if err != nil {
			return err
		}
	}
	w.layersFromAcc()
	return nil
}
