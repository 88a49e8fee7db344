// Package broker is the VM's concurrent JIT compile broker — the queue +
// cache + worker-pool shape HotSpot's CompileBroker gives its tiered
// compilation system. Hot methods are submitted with their hotness; the
// broker deduplicates in-flight requests, keeps a bounded
// hotness-prioritized queue, compiles on a pool of worker goroutines, and
// publishes finished code through an atomic installation callback while the
// interpreter keeps running (true tier-up). A compiled-code cache keyed by
// (method, EA mode, speculation, profile fingerprint) lets recompiles after
// deoptimization-invalidation and repeated benchmark runs replay earlier
// work instead of re-running the build→inline→GVN→PEA pipeline. Submission
// is the only way code enters the cache; Cached is an earlier read of it,
// for a VM that wants an artifact before its method is hot. A broker holds no
// callbacks of its own: every submission carries the Hooks of the VM that
// made it, so one broker serves one VM or a server's worth of them alike.
//
// A broker with zero workers is synchronous: Submit compiles (or replays
// from cache) on the calling goroutine and returns with the code installed.
// That mode is the VM default, preserving the deterministic
// interpreter-vs-compiled oracles the differential tests rely on.
package broker

import (
	"container/heap"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"pea/internal/bc"
	"pea/internal/budget"
	"pea/internal/check"
	"pea/internal/ir"
	"pea/internal/obs"
)

// Options configures a Broker.
type Options struct {
	// Workers is the number of background compile goroutines. 0 makes the
	// broker synchronous (compiles run on the submitting goroutine);
	// negative selects GOMAXPROCS.
	Workers int
	// QueueCap bounds the pending queue (default 256). Submissions beyond
	// the bound are rejected (the method stays interpreted and may be
	// resubmitted later) so a compilation storm cannot grow memory
	// without limit.
	QueueCap int
	// Cache is the compiled-code cache. nil creates a private cache; pass
	// a shared one to reuse artifacts across VMs running the same
	// program.
	Cache *Cache
	// Store, when non-nil, is the disk-backed artifact store behind the
	// in-memory cache: a memory miss tries the store before running the
	// pipeline (loads are decoded against the submission's Hooks.Resolver and
	// re-verified at the install boundary; anything suspect is a miss),
	// and fresh compiles are written through so later processes sharing
	// the directory warm-start.
	Store *Store
	// InjectFault, when non-nil, is invoked at named fault points with the
	// method's qualified name: the broker's own (FaultCompile,
	// FaultInstall) and, through FaultHook, the pipeline phase boundaries
	// of every VM submitting to the broker. It exists to deterministically
	// drive the containment layer — a hook that panics or sleeps simulates
	// a compiler crash or a runaway compile at an exact point, under the
	// race detector. When nil, New installs a hook parsed from the
	// PEA_FAULT environment variable (see FaultFromEnv); production runs
	// with the variable unset pay a single nil check per point.
	InjectFault func(point, method string)

	// Check is the sanitizer level applied to freshly compiled graphs
	// before they enter the code cache. Cache entries are shared across
	// VMs and replayed without re-running the pipeline, so a corrupt
	// graph would be installed everywhere; re-verifying at the install
	// boundary makes the cache a trust boundary. The PEA_CHECK
	// environment variable floors this level.
	Check check.Level
}

func (o Options) workers() int {
	if o.Workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

func (o Options) queueCap() int {
	if o.QueueCap > 0 {
		return o.QueueCap
	}
	return 256
}

// Stats is a point-in-time snapshot of broker counters.
type Stats struct {
	Submitted   int64 // accepted submissions (queued or compiled inline)
	Compiled    int64 // pipeline runs completed successfully
	Failed      int64 // pipeline runs that errored (including contained panics)
	Panics      int64 // pipeline runs that panicked and were contained
	Installed   int64 // successful installations (compiled + cache replays)
	CacheHits   int64 // installations served from the in-memory code cache
	CacheMisses int64 // submissions that missed the in-memory cache
	// DiskHits counts in-memory misses resolved by loading, re-verifying,
	// and installing a persisted artifact instead of running the pipeline
	// (each also counts as a CacheMiss: hit rate over both tiers is
	// (CacheHits+DiskHits) / (CacheHits+CacheMisses)).
	DiskHits int64
	Dedup    int64 // submissions coalesced with an in-flight compile
	Rejected int64 // submissions dropped on a full queue
	MaxQueue int64 // high-water mark of the pending queue
	// BusyNS is the total wall-clock time spent resolving compilations
	// (pipeline runs and cache replays). WorkerBusyNS breaks it down per
	// background worker (empty in synchronous mode, where compiles run on
	// the submitting goroutine).
	BusyNS       int64
	WorkerBusyNS []int64
}

// Hooks carries the callbacks of the VM behind a submission, so that one
// worker pool compiles for every VM sharing the broker while each install
// lands in the right VM's code table and each decode resolves against the
// right program. Compile is required; a nil Install, Fail, Resolver or Sink
// is skipped.
type Hooks struct {
	// Compile runs the full pipeline (and backend lowering) for one
	// request, returning the installable artifact. It must be safe for
	// concurrent use (the VM's pipeline carries no shared mutable state
	// beyond the locked profile and observability registries). A bare
	// *ir.Graph is a valid artifact for graph-level consumers.
	Compile func(m *bc.Method, k Key) (Artifact, error)
	// Install publishes finished code. It is called from worker
	// goroutines (or the submitting goroutine in synchronous mode) and
	// must publish atomically. fromCache reports a code-cache replay.
	Install func(m *bc.Method, k Key, a Artifact, fromCache bool)
	// Fail records a permanent compilation failure. The key identifies
	// which artifact failed (a standard compile vs. one OSR entry point
	// of the same method).
	Fail func(m *bc.Method, k Key, err error)
	// Resolver decodes persisted artifacts against the submitting VM's
	// program; nil disables store loads for the submission.
	Resolver ir.Resolver
	// Sink is the submitting VM's sink: the broker records the submission's
	// lifecycle there — submit (with the queue depth), compile start, install
	// or failure with its broker time, a contained panic. On a ring shared by
	// every tenant of the broker a method ID only means something together
	// with the view's program tag, hence per submission.
	Sink *obs.Sink
}

// task is one pending compilation.
type task struct {
	m       *bc.Method
	key     Key
	hooks   *Hooks
	hotness int64
	seq     int64 // FIFO tie-break for equal hotness (determinism)
}

// taskHeap is a max-heap by hotness, FIFO within a hotness level.
type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].hotness != h[j].hotness {
		return h[i].hotness > h[j].hotness
	}
	return h[i].seq < h[j].seq
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*task)) }
func (h *taskHeap) Pop() any {
	old := *h
	n := len(old)
	t := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return t
}

// inflightKey identifies one compilation unit for deduplication: either a
// standard compile of a method or one of its OSR entry points. Requests
// for distinct entry points of the same method proceed independently.
type inflightKey struct {
	m        *bc.Method
	entryBCI int
}

// Broker coordinates compilations.
type Broker struct {
	opts  Options
	cache *Cache
	// summaries is the memory tier for whole-program escape-summary sets,
	// guarded by sumMu.
	sumMu     sync.Mutex
	summaries *summaryCache
	mu        sync.Mutex
	cond      *sync.Cond // signals workers (work available / closing)
	idle      *sync.Cond // signals Drain (queue empty, workers idle)
	queue     taskHeap
	inflight  map[inflightKey]bool // queued or being compiled
	busy      int
	seq       int64
	closed    bool
	stats     Stats
	// workerBusy accumulates per-worker compile wall time (guarded by mu;
	// indexed by worker; empty in synchronous mode).
	workerBusy []int64

	wg sync.WaitGroup
}

// New creates a broker and starts its workers.
func New(opts Options) *Broker {
	if opts.InjectFault == nil {
		opts.InjectFault = FaultFromEnv()
	}
	b := &Broker{
		opts:      opts,
		cache:     opts.Cache,
		summaries: newSummaryCache(),
		inflight:  make(map[inflightKey]bool),
	}
	if b.cache == nil {
		b.cache = NewCache()
	}
	b.cond = sync.NewCond(&b.mu)
	b.idle = sync.NewCond(&b.mu)
	b.workerBusy = make([]int64, opts.workers())
	for i := 0; i < opts.workers(); i++ {
		b.wg.Add(1)
		go b.worker(i)
	}
	return b
}

// Cache returns the broker's code cache.
func (b *Broker) Cache() *Cache { return b.cache }

// Store returns the broker's persistent artifact store, or nil when the
// broker is memory-only.
func (b *Broker) Store() *Store { return b.opts.Store }

// FaultHook returns the broker's fault-injection hook (Options.InjectFault,
// or the one New parsed from PEA_FAULT), nil when there is none. The VMs
// submitting to the broker fire their pipeline's points through it too, so
// a spec's visit counter counts every point once per broker, however many
// VMs share it.
func (b *Broker) FaultHook() func(point, method string) { return b.opts.InjectFault }

// Async reports whether the broker compiles on background workers.
func (b *Broker) Async() bool { return b.opts.workers() > 0 }

// Pending reports whether the compilation unit (m, entryBCI) — entryBCI is
// NoOSR for a standard compile — is queued or being compiled. It is a
// cheap pre-check so hot call paths can skip building a cache key for
// requests already in flight.
func (b *Broker) Pending(m *bc.Method, entryBCI int) bool {
	if !b.Async() {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.inflight[inflightKey{m, entryBCI}]
}

// Submit requests compilation of m under key k with the given hotness
// (typically the invocation count) on behalf of the VM whose hooks h carries.
// In synchronous mode the compilation (or cache replay) completes before
// Submit returns. In asynchronous mode Submit enqueues and returns
// immediately; duplicates of in-flight methods are coalesced and submissions
// over the queue bound are rejected. The return value reports whether the
// submission was accepted. A submission that reaches the pipeline without a
// Compile hook is a recorded failure.
//
// Deduplication nuance under sharing: concurrent in-flight submissions of
// the same compilation unit coalesce, and only the first submitter's
// hooks run. The losing tenant's VM simply resubmits on its next hot call
// and replays the now-cached artifact — convergent, at the cost of one
// extra trip through the queue.
func (b *Broker) Submit(m *bc.Method, hotness int64, k Key, h *Hooks) bool {
	if h == nil {
		h = &Hooks{}
	}
	if !b.Async() {
		b.mu.Lock()
		b.stats.Submitted++
		b.mu.Unlock()
		h.Sink.BrokerSubmit(m, hotness, 0)
		b.compileOne(&task{m: m, key: k, hooks: h, hotness: hotness}, -1)
		return true
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	ik := inflightKey{m, k.EntryBCI}
	if b.inflight[ik] {
		b.stats.Dedup++
		b.mu.Unlock()
		h.Sink.BrokerDedup(m)
		return false
	}
	if len(b.queue) >= b.opts.queueCap() {
		b.stats.Rejected++
		b.mu.Unlock()
		h.Sink.BrokerReject(m, "queue-full")
		return false
	}
	b.seq++
	heap.Push(&b.queue, &task{m: m, key: k, hooks: h, hotness: hotness, seq: b.seq})
	b.inflight[ik] = true
	b.stats.Submitted++
	if int64(len(b.queue)) > b.stats.MaxQueue {
		b.stats.MaxQueue = int64(len(b.queue))
	}
	depth := len(b.queue)
	b.mu.Unlock()

	h.Sink.BrokerSubmit(m, hotness, depth)
	b.cond.Signal()
	return true
}

// worker is the compile loop of one background goroutine; i is the
// worker's index, used for per-worker busy-time accounting.
func (b *Broker) worker(i int) {
	defer b.wg.Done()
	for {
		b.mu.Lock()
		for len(b.queue) == 0 && !b.closed {
			b.cond.Wait()
		}
		if len(b.queue) == 0 && b.closed {
			b.mu.Unlock()
			return
		}
		t := heap.Pop(&b.queue).(*task)
		b.busy++
		b.mu.Unlock()

		b.compileOne(t, i)

		b.mu.Lock()
		delete(b.inflight, inflightKey{t.m, t.key.EntryBCI})
		b.busy--
		if len(b.queue) == 0 && b.busy == 0 {
			b.idle.Broadcast()
		}
		b.mu.Unlock()
	}
}

// compileOne resolves one task: cache replay or pipeline run, then
// installation (or failure recording). worker is the background worker's
// index for busy-time accounting (-1 for the synchronous submit path).
func (b *Broker) compileOne(t *task, worker int) {
	s := t.hooks.Sink
	start := time.Now()
	defer b.addBusy(start, worker)

	s.CompileStart(t.m, t.hotness)
	if a, ok := b.cache.Get(t.key); ok {
		b.replayed(t, start)
		if t.hooks.Install != nil {
			t.hooks.Install(t.m, t.key, a, true)
		}
		return
	}
	b.mu.Lock()
	b.stats.CacheMisses++
	b.mu.Unlock()

	// Second tier: a persisted artifact from an earlier process (or an
	// entry evicted from the bounded memory cache). Load re-verifies at
	// the install boundary; anything suspect was already counted as a
	// rejection by the store and falls through to a fresh compile.
	if b.opts.Store != nil {
		if g, ok := b.opts.Store.Load(t.key, t.hooks.Resolver, b.opts.Check); ok {
			a := b.cache.Put(t.key, g)
			b.mu.Lock()
			b.stats.DiskHits++
			b.stats.Installed++
			b.mu.Unlock()
			s.BrokerInstall(t.m, "disk", time.Since(start))
			if t.hooks.Install != nil {
				t.hooks.Install(t.m, t.key, a, true)
			}
			return
		}
	}

	a, err := b.runCompile(t)
	if err != nil {
		b.failed(t, start, err)
		return
	}
	// First writer wins so every VM sharing the cache installs the same
	// canonical artifact.
	a = b.cache.Put(t.key, a)
	// Write-through: persist the scheduled graph (not the backend-lowered
	// closure, which is process-local) so future processes warm-start.
	// Best effort — a failed write costs nothing but the counter.
	if b.opts.Store != nil {
		_ = b.opts.Store.Put(t.key, a.Graph())
	}
	b.mu.Lock()
	b.stats.Compiled++
	b.stats.Installed++
	b.mu.Unlock()
	s.BrokerInstall(t.m, "compiled", time.Since(start))
	if t.hooks.Install != nil {
		t.hooks.Install(t.m, t.key, a, false)
	}
}

// Cached looks k up in the memory tier only, for a VM that wants m's code
// before m is hot (first call, or a loop header's first back edge). A hit is
// accounted exactly like a submission's cache replay — CacheHits, Installed,
// the "cache" install event, the FaultInstall point inside
// the fault boundary — and the artifact is returned for the caller to
// install. A miss counts as nothing, so the hit rate keeps describing
// submissions: most methods a VM calls were never hot enough to have an
// artifact. The disk tier is not consulted; an artifact that lives only
// there reaches memory through the ordinary threshold submission.
//
// h carries the caller's sink and, should the injected install fault panic,
// its Fail callback.
func (b *Broker) Cached(m *bc.Method, k Key, h *Hooks) (Artifact, bool) {
	a, ok := b.cache.Probe(k)
	if !ok {
		return nil, false
	}
	start := time.Now()
	defer b.addBusy(start, -1)
	if h == nil {
		h = &Hooks{}
	}
	t := &task{m: m, key: k, hooks: h}
	if err := b.faultInstall(t); err != nil {
		b.failed(t, start, err)
		return nil, false
	}
	b.replayed(t, start)
	return a, true
}

// addBusy charges the wall time since start to the broker (and to the
// background worker, when there is one).
func (b *Broker) addBusy(start time.Time, worker int) {
	el := time.Since(start).Nanoseconds()
	b.mu.Lock()
	b.stats.BusyNS += el
	if worker >= 0 && worker < len(b.workerBusy) {
		b.workerBusy[worker] += el
	}
	b.mu.Unlock()
}

// replayed accounts one installation served from the memory tier.
func (b *Broker) replayed(t *task, start time.Time) {
	b.mu.Lock()
	b.stats.CacheHits++
	b.stats.Installed++
	b.mu.Unlock()
	t.hooks.Sink.BrokerInstall(t.m, "cache", time.Since(start))
}

// failed accounts one unit that produced no installable code and hands the
// error to the submitter.
func (b *Broker) failed(t *task, start time.Time, err error) {
	b.mu.Lock()
	b.stats.Failed++
	b.mu.Unlock()
	// A budget bailout is classified by what ran out where
	// ("deadline@pea-fixpoint") rather than by its full error text, so a
	// storm of bailouts cannot flood the ring's bounded reason table.
	reason := "error"
	var be *budget.Err
	if errors.As(err, &be) {
		reason = be.Kind + "@" + be.Phase
	} else if Transient(err) {
		reason = "transient"
	}
	t.hooks.Sink.CompileFail(t.m, reason, time.Since(start))
	if t.hooks.Fail != nil {
		t.hooks.Fail(t.m, t.key, err)
	}
}

// runCompile runs the pipeline for one task inside the broker's fault
// boundary: a panic anywhere in build→inline→GVN→PEA (or in an injected
// fault) is recovered, counted, reported as a broker_panic event, and
// converted into a structured *PanicError carrying the stack — HotSpot's
// CompileBroker discipline, where a crashing compile is a per-method event
// rather than a process death. Successful graphs are re-verified before
// they may enter the shared code cache.
func (b *Broker) runCompile(t *task) (a Artifact, err error) {
	name := t.m.QualifiedName()
	defer b.contain(t, &err)
	if f := b.opts.InjectFault; f != nil {
		f(FaultCompile, name)
	}
	if t.hooks.Compile == nil {
		return nil, fmt.Errorf("broker: submission of %s carries no Compile hook", name)
	}
	a, err = t.hooks.Compile(t.m, t.key)
	if err == nil {
		// Re-verify before the artifact becomes shared state: the cache
		// replays artifacts into other VMs without another pipeline run.
		if cerr := check.Graph(a.Graph(), check.Effective(b.opts.Check)); cerr != nil {
			err = fmt.Errorf("broker: refusing to install %s: %w", name, cerr)
			t.hooks.Sink.CheckViolation("broker-install", name, cerr.Error(), "")
		}
	}
	if err == nil {
		err = b.faultInstall(t)
	}
	return a, err
}

// faultInstall fires the FaultInstall injection point inside the fault
// boundary.
func (b *Broker) faultInstall(t *task) (err error) {
	if f := b.opts.InjectFault; f != nil {
		defer b.contain(t, &err)
		f(FaultInstall, t.m.QualifiedName())
	}
	return nil
}

// contain is the fault boundary: deferred around compiler (or injected
// fault) code, it turns a panic into *err.
func (b *Broker) contain(t *task, err *error) {
	r := recover()
	if r == nil {
		return
	}
	*err = &PanicError{Method: t.m.QualifiedName(), Value: r, Stack: string(debug.Stack())}
	b.mu.Lock()
	b.stats.Panics++
	b.mu.Unlock()
	t.hooks.Sink.BrokerPanic(t.m, fmt.Sprint(r))
}

// Drain blocks until the queue is empty and all workers are idle. It is
// the synchronization point for tests and benchmarks that need every
// submitted compilation resolved before measuring.
func (b *Broker) Drain() {
	if !b.Async() {
		return
	}
	b.mu.Lock()
	for len(b.queue) > 0 || b.busy > 0 {
		b.idle.Wait()
	}
	b.mu.Unlock()
}

// Close drains the queue, stops the workers, and waits for them to exit.
// The broker rejects submissions afterwards.
func (b *Broker) Close() {
	if !b.Async() {
		return
	}
	b.mu.Lock()
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
	b.wg.Wait()
}

// Stats snapshots the broker counters.
func (b *Broker) Stats() Stats {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.stats
	if len(b.workerBusy) > 0 {
		s.WorkerBusyNS = append([]int64(nil), b.workerBusy...)
	}
	return s
}
