// Package vm assembles the whole system the paper describes: a bytecode
// interpreter that profiles the running program, a just-in-time compiler
// policy that compiles hot methods through a configurable optimization
// pipeline (no escape analysis / flow-insensitive EA / Partial Escape
// Analysis, optionally with speculative branch pruning), a compiled-code
// executor, and the deoptimization runtime that transfers execution back
// to the interpreter — materializing scalar-replaced objects from the
// VirtualObjectStates recorded in FrameStates (paper §5.5).
//
// Compilation is mediated by a compile broker (internal/broker): the one
// handed in as Options.JIT, or a private one. The private broker is
// synchronous — a hot method is compiled on the spot, deterministically, which
// the differential interpreter-vs-compiled oracles rely on. A broker built
// with workers compiles in the background while the interpreter keeps
// executing the method (true tier-up);
// finished code is published by an atomic pointer store into the VM's code
// table, so the execution thread picks it up on the next call without
// locking. Either way, artifacts land in a compiled-code cache keyed by
// (method, EA mode, speculation, profile fingerprint) and recompiles after
// deoptimization or across VMs sharing the cache replay cached code
// instead of re-running the pipeline. Non-speculative keys carry no
// profile fingerprint, so a VM asks the cache's memory tier for them before
// a method has ever run — at its first call, and at a loop header's first
// back edge — and a hit installs without one interpreted warm-up
// invocation (Stats.WarmInstalls).
//
// With Options.OSRThreshold the VM also performs on-stack replacement:
// the interpreter counts loop back edges, and a loop that crosses the
// threshold triggers compilation of the method with an alternate entry at
// the loop header (build.BuildOSR). The live interpreter frame is
// transferred into the compiled code mid-invocation, so even a single
// long-running call tiers up; deoptimization transfers back out through
// the ordinary FrameState path.
package vm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pea/internal/bc"
	"pea/internal/broker"
	"pea/internal/budget"
	"pea/internal/build"
	"pea/internal/check"
	"pea/internal/ea"
	"pea/internal/exec"
	"pea/internal/interp"
	"pea/internal/ir"
	"pea/internal/obs"
	"pea/internal/obs/flight"
	"pea/internal/opt"
	"pea/internal/pea"
	"pea/internal/rt"
	"pea/internal/summary"
)

// EAMode selects the escape analysis configuration of the JIT.
type EAMode int

const (
	// EAOff performs no escape analysis (the paper's "without" column).
	EAOff EAMode = iota
	// EAFlowInsensitive runs the equi-escape-sets baseline (§6.2, the
	// HotSpot-server-compiler-style analysis).
	EAFlowInsensitive
	// EAPartial runs the paper's Partial Escape Analysis.
	EAPartial
)

// String names the mode.
func (m EAMode) String() string {
	switch m {
	case EAOff:
		return "no-ea"
	case EAFlowInsensitive:
		return "ea"
	case EAPartial:
		return "pea"
	default:
		return fmt.Sprintf("EAMode(%d)", int(m))
	}
}

// Options configures a VM.
type Options struct {
	EA EAMode
	// Backend selects the execution backend compiled graphs are lowered
	// for and run on: BackendOracle (default) is the tree-walking
	// reference evaluator, BackendClosure the template JIT.
	Backend Backend
	// Interpret disables the JIT entirely.
	Interpret bool
	// CompileThreshold is the invocation count that triggers
	// compilation (default 20).
	CompileThreshold int64
	// Speculate enables profile-guided branch pruning with
	// deoptimization.
	Speculate bool
	// Summaries enables inter-procedural escape summaries (internal/
	// summary): a whole-program bottom-up analysis computed once per
	// program — resolved through the broker's memory and disk tiers, so
	// warm restarts skip it — and consulted by the pipeline so that (a)
	// EA/PEA keep objects virtual across non-inlined calls whose callee
	// provably never observes the argument, and (b) the inliner
	// prioritizes call sites whose inlining can unlock scalar
	// replacement. Off by default: summaries change compiled code, so the
	// flag is part of the code-cache key.
	Summaries bool
	// OSRThreshold is the back-edge count at which a hot loop triggers an
	// on-stack-replacement compilation of its enclosing method, entered at
	// the loop header mid-invocation. <=0 (the default) disables OSR; the
	// method then tiers up only at call boundaries.
	OSRThreshold int64
	// Seed seeds the deterministic PRNG (default 1).
	Seed uint64
	// MaxSteps bounds interpreted+compiled steps (0 = unbounded).
	MaxSteps int64
	// CheckLevel selects the compiler sanitizer level run between phases
	// (off, basic, strict). The PEA_CHECK environment variable floors the
	// configured level for the whole process. check.Off (the default)
	// adds zero work to the compile path.
	CheckLevel check.Level

	// JIT is the compile broker the VM submits to. nil (the default) gives
	// the VM a private one: synchronous, memory-only, closed by Close. Pass
	// a broker to get anything else — background workers, a bounded queue, a
	// persistent store, or one worker pool and cache shared by many VMs (the
	// tenants of a server). The VM's callbacks travel with each submission,
	// so a shared broker still compiles with and installs into the
	// submitting VM; a rejected submission (full queue) re-arms the method's
	// hotness trigger with backoff. Whoever built a broker closes it.
	JIT *broker.Broker

	// CompileDeadline bounds each compilation's wall-clock time. A
	// compile that overruns unwinds cooperatively at the next pipeline
	// boundary with a structured budget error; the method stays
	// interpreted and is re-armed with backoff (transient failure). 0
	// (the default) disables the deadline and provably never reads the
	// clock (budget.ClockReads).
	CompileDeadline time.Duration
	// MaxIRNodes bounds the IR graph size observed at pipeline
	// boundaries, stopping inlining-driven graph explosion. 0 disables.
	MaxIRNodes int

	// CrashDir, when non-empty, is where the VM writes minimized crash
	// reproducers: when a compile panics (the broker contains it), the
	// offending method's bytecode is shrunk with check.Minimize while the
	// panic still reproduces and saved as a committed-format JSON repro —
	// the moral equivalent of HotSpot's replay files. Empty (the default)
	// captures nothing.
	CrashDir string

	// InjectFault, when non-nil, is the fault-injection hook invoked at
	// the VM pipeline's named phase boundaries ("build", "build-osr",
	// "opt", "prune", "ea", "pea", "post") with the method's qualified
	// name, and handed to the private broker for its own points
	// (broker.FaultCompile, broker.FaultInstall; a broker passed as JIT has
	// its own broker.Options.InjectFault). A hook that panics or sleeps
	// drives the containment layer deterministically in tests and CI. When
	// nil, the PEA_FAULT environment variable is consulted (see
	// broker.FaultFromEnv).
	InjectFault func(point, method string)

	// Sink, when non-nil, receives structured observability events from
	// the whole pipeline: per-phase compile timing, inlining and PEA/EA
	// decisions, tier-up compiles, deopts with reasons, virtual-object
	// rematerializations, invalidations, recompiles, and broker traffic.
	// nil (the default) adds no allocations to the compile or execution
	// path. Counters and per-phase timers come with it: Sink.SetMetrics.
	Sink *obs.Sink

	// Flight, when non-nil, is the always-on flight recorder shared by the
	// VM, the broker, and the PEA pipeline. nil (the default) makes New
	// create a private recorder with DefaultCapacity — the recorder is
	// meant to stay on, JFR-style, so every VM has one; pass a recorder
	// explicitly to pick a capacity, or pass one flight.Recorder.Program
	// view per program to share a ring across VMs (New registers the
	// program's method names only on a recorder that has none).
	Flight *flight.Recorder
}

// checkLevel applies the PEA_CHECK environment floor to the configured
// sanitizer level.
func (o Options) checkLevel() check.Level {
	return check.Effective(o.CheckLevel)
}

func (o Options) threshold() int64 {
	if o.CompileThreshold > 0 {
		return o.CompileThreshold
	}
	return 20
}

// minPruneTotal is the branch-observation floor for speculative pruning: a
// branch is prunable once it has been observed throughout the interpreted
// warmup (threshold-1 invocations precede the compilation).
func (o Options) minPruneTotal() int64 {
	if t := o.threshold() - 1; t > 1 {
		return t
	}
	return 1
}

// Stats reports VM-level counters on top of rt.Stats. Fields are updated
// with atomic adds (installation may happen on broker workers); read them
// after DrainJIT, or via the Stats method, for a consistent snapshot.
type Stats struct {
	CompiledMethods    int64
	Recompilations     int64
	InvalidatedMethods int64
	// OSRCompilations counts installed on-stack-replacement graphs (kept
	// separate from CompiledMethods: an OSR artifact is an extra entry
	// point, not a method tier-up).
	OSRCompilations int64
	// OSRRequests counts OSR compilations submitted to the broker.
	OSRRequests int64
	// OSREntries counts transfers from an interpreter frame into compiled
	// OSR code at a loop-header back-edge.
	OSREntries int64
	// WarmInstalls counts code installed from the broker's memory tier
	// before its unit was hot: at a method's first call or a loop header's
	// first back edge (each also counts in CompiledMethods or
	// OSRCompilations).
	WarmInstalls int64
	// PipelineCompiles counts this VM's submissions that the broker resolved
	// by running the pipeline (neither cache tier had the artifact). Counted
	// here, at the install hook, so that VMs sharing a broker each see their
	// own compiles and not their neighbours'.
	PipelineCompiles int64
	// TransientFailures counts compilations that failed with a transient
	// error (compile deadline, IR budget) and were re-armed instead of
	// blacklisted.
	TransientFailures int64
	// Rearms counts hotness-trigger re-arms after transient failures and
	// queue-full rejections (retry with exponential backoff).
	Rearms int64
	// CrashRepros counts minimized compiler-crash reproducers written to
	// Options.CrashDir.
	CrashRepros int64
}

// VM runs one program.
type VM struct {
	Prog *bc.Program
	Env  *rt.Env
	Opts Options

	Interp *interp.Interp
	Engine *exec.Engine

	// backend lowers scheduled graphs into installable code (selected by
	// Options.Backend, resolved once at construction).
	backend exec.Backend

	// code is the installed-code table, indexed by bc.Method.ID. Entries
	// are published with atomic stores by the broker's install callback
	// and loaded without locks on the execution path (codeCell wraps the
	// exec.Code interface so atomic.Pointer has a concrete type).
	code []atomic.Pointer[codeCell]
	// noSpec marks methods whose speculative code deoptimized; they are
	// recompiled without speculation.
	noSpec []atomic.Bool

	// warmProbed marks methods whose non-speculative key has been looked
	// up in the broker's memory tier (see warmInstall); cleared by
	// Invalidate so a deoptimized method asks again. Indexed by method ID.
	warmProbed []atomic.Bool

	// osrCode holds installed on-stack-replacement code keyed by
	// (method, loop-header BCI). Every interpreted back edge consults it,
	// so readers load the current map without locking (nil while the VM
	// has no OSR code at all); writers replace it copy-on-write under
	// osrMu, which also guards the rarely touched failure and backoff maps.
	osrCode   atomic.Pointer[map[osrSite]exec.Code]
	osrMu     sync.Mutex
	osrFailed map[osrSite]bool

	// jit is Options.JIT, or the private broker New made in its place.
	jit *broker.Broker
	// hooks carries this VM's compile/install/failure callbacks and its
	// program resolver with every submission, so a broker shared between
	// VMs dispatches back to the right tenant.
	hooks broker.Hooks

	// failed records permanent compilation failures per compilation unit
	// (broker key shape: method + entry point). A failed OSR entry
	// blacklists only that (method, loop header) pair; the method itself
	// stays eligible for standard tier-up, and vice versa. Failed units
	// stay interpreted: panics and pipeline errors are compiler bugs that
	// surface in tests, while in production they degrade to
	// interpretation. Transient failures (budget overruns, queue
	// rejections) are never recorded here — they re-arm instead.
	failedMu sync.Mutex
	failed   map[failKey]error
	// hasFailed mirrors the standard-entry failures for lock-free
	// hot-path checks.
	hasFailed []atomic.Bool

	// retryAt gates resubmission after a transient failure or a
	// queue-full rejection: the method becomes submit-eligible again only
	// once its invocation count reaches the stored value (exponential
	// backoff on the hotness counter). retryN counts consecutive re-arms;
	// a successful install resets both. Indexed by dense method ID.
	retryAt []atomic.Int64
	retryN  []atomic.Int32
	// osrRetryAt/osrRetryN is the same backoff state for OSR entry
	// points, gated on the loop header's back-edge count (guarded by
	// osrMu; back edges are orders of magnitude rarer than calls).
	osrRetryAt map[osrSite]int64
	osrRetryN  map[osrSite]int32

	// crashCaptured dedups crash-reproducer capture per method, so a
	// panicking compile resubmitted under different keys minimizes once.
	crashMu       sync.Mutex
	crashCaptured map[*bc.Method]bool

	// sums is the program's inter-procedural summary set, resolved
	// lazily through the broker's tiers on the first compile that wants
	// it (sumOnce); nil until then and forever when Options.Summaries is
	// off.
	sums    *summary.Set
	sumOnce sync.Once

	// flight is the always-on flight recorder (never nil after New);
	// reasonRemat is the pre-interned "deopt-remat" reason code so the
	// deopt path records without a map lookup.
	flight      *flight.Recorder
	reasonRemat uint16

	VMStats Stats
}

// failKey identifies one compilation unit for failure bookkeeping: a
// method-entry compile (entryBCI == broker.NoOSR) or one OSR entry point.
type failKey struct {
	m        *bc.Method
	entryBCI int
}

// codeCell wraps installed exec.Code so the lock-free code table can use
// atomic.Pointer (which needs a concrete element type, not an interface).
type codeCell struct {
	code exec.Code
}

// New creates a VM for the program.
func New(prog *bc.Program, opts Options) *VM {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.InjectFault == nil {
		// PEA_FAULT, for the pipeline's phase boundaries and the private
		// broker's points (a broker passed in resolved it for itself).
		opts.InjectFault = broker.FaultFromEnv()
	}
	if opts.Flight == nil {
		opts.Flight = flight.New(0)
	}
	if !opts.Flight.HasMethodNames() {
		opts.Flight.SetMethodNames(MethodNames(prog))
	}
	vm := &VM{
		Prog:        prog,
		Env:         rt.NewEnv(prog, opts.Seed),
		Opts:        opts,
		backend:     opts.Backend.impl(),
		code:        make([]atomic.Pointer[codeCell], len(prog.Methods)),
		noSpec:      make([]atomic.Bool, len(prog.Methods)),
		warmProbed:  make([]atomic.Bool, len(prog.Methods)),
		failed:      make(map[failKey]error),
		hasFailed:   make([]atomic.Bool, len(prog.Methods)),
		retryAt:     make([]atomic.Int64, len(prog.Methods)),
		retryN:      make([]atomic.Int32, len(prog.Methods)),
		flight:      opts.Flight,
		reasonRemat: opts.Flight.Reason("deopt-remat"),
		jit:         opts.JIT,
	}
	vm.Interp = interp.New(vm.Env)
	vm.Interp.MaxSteps = opts.MaxSteps
	vm.Interp.CallHook = vm.interpCallHook
	if opts.OSRThreshold > 0 && !opts.Interpret {
		vm.osrFailed = make(map[osrSite]bool)
		vm.Interp.OSRHook = vm.osrHook
	}
	vm.Engine = &exec.Engine{Env: vm.Env, MaxSteps: opts.MaxSteps, Sink: opts.Sink}
	vm.Engine.Invoke = vm.engineInvoke
	vm.Engine.Deopt = vm.deopt

	vm.hooks = broker.Hooks{
		Compile:  vm.compileForKey,
		Install:  vm.install,
		Fail:     vm.recordFailure,
		Resolver: prog,
		Flight:   vm.flight,
	}
	if vm.jit == nil {
		vm.jit = broker.New(broker.Options{
			Check:       opts.checkLevel(),
			Sink:        opts.Sink,
			InjectFault: opts.InjectFault,
		})
	}
	return vm
}

// MethodNames is the flight recorder's name table for prog: qualified
// names indexed by dense method ID.
func MethodNames(prog *bc.Program) []string {
	names := make([]string, len(prog.Methods))
	for i, m := range prog.Methods {
		names[i] = m.QualifiedName()
	}
	return names
}

// Run executes the program's entry point.
func (vm *VM) Run() (rt.Value, error) {
	if vm.Prog.Main == nil {
		return rt.Value{}, fmt.Errorf("vm: program has no entry point")
	}
	return vm.Call(vm.Prog.Main, nil)
}

// Call invokes m with args under the VM's execution policy.
func (vm *VM) Call(m *bc.Method, args []rt.Value) (rt.Value, error) {
	if c := vm.maybeCompiled(m); c != nil {
		return c.Run(vm.Engine, args)
	}
	return vm.Interp.Call(m, args)
}

// interpCallHook diverts interpreted calls to compiled code when available.
func (vm *VM) interpCallHook(m *bc.Method, args []rt.Value) (rt.Value, bool, error) {
	if c := vm.maybeCompiled(m); c != nil {
		v, err := c.Run(vm.Engine, args)
		return v, true, err
	}
	return rt.Value{}, false, nil
}

// engineInvoke handles calls made from compiled code.
func (vm *VM) engineInvoke(m *bc.Method, args []rt.Value) (rt.Value, error) {
	if c := vm.maybeCompiled(m); c != nil {
		return c.Run(vm.Engine, args)
	}
	return vm.Interp.Call(m, args)
}

// installed returns the currently published code for m (nil if none).
func (vm *VM) installed(m *bc.Method) exec.Code {
	if cell := vm.code[m.ID].Load(); cell != nil {
		return cell.code
	}
	return nil
}

// CompiledGraph returns the scheduled graph behind m's installed code, or
// nil if the method is interpreted. Safe to call concurrently with
// compilation.
func (vm *VM) CompiledGraph(m *bc.Method) *ir.Graph {
	if c := vm.installed(m); c != nil {
		return c.Graph()
	}
	return nil
}

// maybeCompiled returns the installed code for m, requesting compilation if
// it just became hot. In synchronous mode the request completes before this
// returns; in asynchronous mode the interpreter keeps executing m until the
// broker publishes code. Before the hotness test, the first call of m that
// would compile without speculation asks the broker's memory tier for an
// artifact some earlier VM already paid for.
func (vm *VM) maybeCompiled(m *bc.Method) exec.Code {
	if vm.Opts.Interpret {
		return nil
	}
	if c := vm.installed(m); c != nil {
		return c
	}
	if vm.hasFailed[m.ID].Load() {
		return nil
	}
	if !vm.warmProbed[m.ID].Load() && !vm.speculates(m) {
		vm.warmProbed[m.ID].Store(true)
		if vm.warmInstall(m, broker.NoOSR) {
			return vm.installed(m)
		}
	}
	inv := vm.Interp.Profile.Invocations(m)
	if inv < vm.Opts.threshold() {
		return nil
	}
	if vm.retryAt[m.ID].Load() > inv {
		return nil // backed off after a transient failure or rejection
	}
	if vm.jit.Pending(m, broker.NoOSR) {
		return nil // already queued or being compiled; keep interpreting
	}
	if !vm.jit.Submit(m, inv, vm.cacheKey(m, broker.NoOSR), &vm.hooks) {
		// Rejected (queue full, closing, or a racing duplicate): re-arm
		// the hotness trigger with backoff so the method stays
		// submit-eligible instead of hammering — or silently losing —
		// the submission.
		vm.rearm(m, "submit-rejected", inv)
	}
	// Synchronous submissions installed (or failed) before returning;
	// asynchronous ones will publish later and this load stays nil.
	return vm.installed(m)
}

// maxRearmShift caps the exponential backoff: re-armed methods never stop
// retrying, the retries just become geometrically rarer until the gap
// plateaus at threshold<<maxRearmShift additional invocations.
const maxRearmShift = 5

// rearm schedules the next submission attempt for m after a transient
// failure or queue rejection: the method becomes submit-eligible again
// once its invocation count passes hotness + threshold<<attempt
// (exponential backoff on the hotness counter, HotSpot-style re-profiling
// instead of a terminal drop).
func (vm *VM) rearm(m *bc.Method, reason string, hotness int64) {
	n := vm.retryN[m.ID].Add(1)
	shift := int64(n - 1)
	if shift > maxRearmShift {
		shift = maxRearmShift
	}
	next := hotness + vm.Opts.threshold()<<shift
	vm.retryAt[m.ID].Store(next)
	atomic.AddInt64(&vm.VMStats.Rearms, 1)
	if s := vm.Opts.Sink; s != nil {
		s.VMRearm(m.QualifiedName(), reason, int(n), next)
	}
}

// rearmOSR is rearm for one OSR entry point, gated on the loop header's
// back-edge count.
func (vm *VM) rearmOSR(m *bc.Method, entryBCI int, reason string) {
	count := vm.Interp.Profile.BackEdges(m, entryBCI)
	site := osrSite{m, entryBCI}
	vm.osrMu.Lock()
	if vm.osrRetryN == nil {
		vm.osrRetryN = make(map[osrSite]int32)
		vm.osrRetryAt = make(map[osrSite]int64)
	}
	n := vm.osrRetryN[site] + 1
	vm.osrRetryN[site] = n
	shift := int64(n - 1)
	if shift > maxRearmShift {
		shift = maxRearmShift
	}
	next := count + vm.Opts.OSRThreshold<<shift
	vm.osrRetryAt[site] = next
	vm.osrMu.Unlock()
	atomic.AddInt64(&vm.VMStats.Rearms, 1)
	if s := vm.Opts.Sink; s != nil {
		s.VMRearm(fmt.Sprintf("%s@osr%d", m.QualifiedName(), entryBCI), reason, int(n), next)
	}
}

// speculates reports whether a compile of m would apply speculative branch
// pruning: speculation is enabled and m has not deoptimized out of it.
func (vm *VM) speculates(m *bc.Method) bool {
	return vm.Opts.Speculate && !vm.noSpec[m.ID].Load()
}

// cacheKey builds the compiled-code cache key for m's entry point entryBCI
// (broker.NoOSR for the standard entry, a loop-header bytecode index for an
// on-stack-replacement compile) under the VM's configuration. The profile
// enters the key only when the compile speculates, as the fingerprint of
// the branch-pruning verdicts — the pruner is the pipeline's one profile
// reader. Without speculation the key is a pure function of program and
// options: equal across VMs whatever they have executed, and computable
// before m has ever run.
func (vm *VM) cacheKey(m *bc.Method, entryBCI int) broker.Key {
	k := broker.Key{
		MethodFP:  vm.Prog.MethodFingerprint(m),
		Name:      m.QualifiedName(),
		Mode:      int(vm.Opts.EA),
		Spec:      vm.speculates(m),
		EntryBCI:  entryBCI,
		Backend:   vm.backend.Name(),
		Summaries: vm.Opts.Summaries,
	}
	if k.Spec {
		k.Fingerprint = vm.Interp.Profile.Fingerprint(vm.Opts.minPruneTotal())
	}
	return k
}

// warmInstall asks the broker's memory tier for the non-speculative
// artifact of (m, entryBCI) before the unit is hot, and on a hit installs
// it through the same install boundary a threshold submission's replay
// crosses. It reports whether code was published. The caller asks once per
// unit and only while m would compile without speculation; a miss costs a
// map lookup, counts nowhere, and leaves the unit to the ordinary hotness
// trigger, which also covers the disk tier.
func (vm *VM) warmInstall(m *bc.Method, entryBCI int) bool {
	k := vm.cacheKey(m, entryBCI)
	a, ok := vm.jit.Cached(m, k, &vm.hooks)
	return ok && vm.installFrom(m, k, a, true, obs.TriggerCacheFirst)
}

// summarySet resolves the program's inter-procedural summary set, computing
// it on first use through the broker's cache tiers (memory, then disk, then
// analysis). Returns nil when Options.Summaries is off.
func (vm *VM) summarySet() *summary.Set {
	if !vm.Opts.Summaries {
		return nil
	}
	vm.sumOnce.Do(func() {
		vm.sums = vm.jit.Summaries(vm.Prog, func() *summary.Set {
			return summary.Compute(vm.Prog, summary.Options{Sink: vm.Opts.Sink})
		})
	})
	return vm.sums
}

// Summaries exposes the VM's inter-procedural summary set (computing it on
// first call), or nil when Options.Summaries is off. Used by tools that
// render the summary table.
func (vm *VM) Summaries() *summary.Set { return vm.summarySet() }

// compileForKey is the broker's compile callback: the full pipeline
// followed by backend lowering, so the broker caches the lowered artifact
// and warm hits skip both.
func (vm *VM) compileForKey(m *bc.Method, k broker.Key) (broker.Artifact, error) {
	g, err := vm.compileEntry(m, k.Spec, k.EntryBCI)
	if err != nil {
		return nil, err
	}
	return vm.lower(m, g)
}

// lower compiles a scheduled graph into the selected backend's executable
// form. It runs inside the broker's fault boundary, with its own phase span
// and fault point, so lowering bugs are contained like any pipeline phase.
func (vm *VM) lower(m *bc.Method, g *ir.Graph) (exec.Code, error) {
	sink := vm.Opts.Sink
	var span obs.PhaseSpan
	if sink != nil {
		span = obs.StartPhase(sink, "lower", m.QualifiedName(), g.NumNodes(), len(g.Blocks))
	}
	code, err := vm.backend.Compile(g)
	vm.fault("lower", m)
	if err != nil {
		return nil, fmt.Errorf("vm: lowering %s for %s: %w", m.QualifiedName(), vm.backend.Name(), err)
	}
	span.End(g.NumNodes(), len(g.Blocks))
	return code, nil
}

// rebind re-homes a graph compiled against a different link of the same
// program content onto this VM's program: the graph round-trips through
// its serialized form so every class/field/method reference re-resolves
// by name against vm.Prog, then re-verifies at the install boundary.
// Content-addressed keys guarantee the two links agree on bytecode, so
// resolution can only fail if an artifact reached the wrong cache.
func (vm *VM) rebind(g *ir.Graph) (*ir.Graph, error) {
	name := g.Method.QualifiedName()
	payload, err := ir.EncodeJSON(g)
	if err != nil {
		return nil, fmt.Errorf("vm: rebinding %s: %w", name, err)
	}
	ng, err := ir.DecodeJSON(payload, vm.Prog)
	if err != nil {
		return nil, fmt.Errorf("vm: rebinding %s: %w", name, err)
	}
	if err := check.Graph(ng, check.Max(vm.Opts.checkLevel(), check.Basic)); err != nil {
		return nil, fmt.Errorf("vm: rebinding %s: %w", name, err)
	}
	return ng, nil
}

// fault invokes the fault-injection hook at a named pipeline point. A nil
// hook (the default) costs one pointer test.
func (vm *VM) fault(point string, m *bc.Method) {
	if f := vm.Opts.InjectFault; f != nil {
		f(point, m.QualifiedName())
	}
}

// install is the broker's installation callback for code a hotness-triggered
// submission resolved; it may run on a broker worker goroutine.
func (vm *VM) install(m *bc.Method, k broker.Key, a broker.Artifact, fromCache bool) {
	vm.installFrom(m, k, a, fromCache, obs.TriggerThreshold)
}

// installFrom is the install boundary: it publishes the lowered code
// atomically into the code table and reports whether it did. trigger names
// what asked for the code (the unit's hotness threshold, or a first-call
// look into the cache).
func (vm *VM) installFrom(m *bc.Method, k broker.Key, a broker.Artifact, fromCache bool, trigger string) bool {
	if !fromCache {
		atomic.AddInt64(&vm.VMStats.PipelineCompiles, 1)
	}
	code, ok := a.(exec.Code)
	if !ok || code.Graph().Method != m {
		// Two ways to land here: the artifact is a bare graph (a disk
		// load, or a shared cache pre-populated by graph-level tools), or
		// it is lowered code from another VM running a different link of
		// the same program content (equal content-addressed keys, distinct
		// *bc.Method instances). Either way, rebind the graph onto this
		// VM's program if needed and lower it here, so installation always
		// publishes code wired to this VM's own bytecode entities.
		g := a.Graph()
		if g.Method != m {
			var err error
			if g, err = vm.rebind(g); err != nil {
				// Rebinding failure is environmental (an incompatible
				// artifact reached us through a shared cache), not a
				// property of the method: drop the artifact and re-arm
				// the trigger instead of blacklisting.
				if k.IsOSR() {
					vm.rearmOSR(m, k.EntryBCI, "rebind: "+err.Error())
				} else {
					vm.rearm(m, "rebind: "+err.Error(), vm.Interp.Profile.Invocations(m))
				}
				return false
			}
		}
		var err error
		code, err = vm.lower(m, g)
		if err != nil {
			vm.recordFailure(m, k, err)
			return false
		}
	}
	if k.Spec && vm.noSpec[m.ID].Load() {
		// The method deoptimized while this speculative compile was in
		// flight; installing it would immediately deoptimize again.
		// Drop the artifact — the next hot call resubmits with
		// Spec=false.
		return false
	}
	if trigger == obs.TriggerCacheFirst {
		atomic.AddInt64(&vm.VMStats.WarmInstalls, 1)
	}
	if k.IsOSR() {
		site := osrSite{m, k.EntryBCI}
		vm.osrMu.Lock()
		codes := vm.osrCodeCopy()
		codes[site] = code
		vm.osrCode.Store(&codes)
		// A successful install clears the site's transient-failure backoff.
		delete(vm.osrRetryAt, site)
		delete(vm.osrRetryN, site)
		vm.osrMu.Unlock()
		atomic.AddInt64(&vm.VMStats.OSRCompilations, 1)
		if s := vm.Opts.Sink; s != nil {
			s.VMCompile(fmt.Sprintf("%s@osr%d", m.QualifiedName(), k.EntryBCI),
				int(vm.Interp.Profile.BackEdges(m, k.EntryBCI)), trigger)
		}
		return true
	}
	vm.code[m.ID].Store(&codeCell{code: code})
	// A successful install clears the transient-failure backoff, so a later
	// invalidation re-enters the retry ladder from the bottom.
	vm.retryN[m.ID].Store(0)
	vm.retryAt[m.ID].Store(0)
	atomic.AddInt64(&vm.VMStats.CompiledMethods, 1)
	if s := vm.Opts.Sink; s != nil {
		s.VMCompile(m.QualifiedName(), int(vm.Interp.Profile.Invocations(m)), trigger)
	}
	if vm.noSpec[m.ID].Load() && !fromCache {
		// Only pipeline re-runs count as recompilations; cache replays
		// after an invalidation reuse earlier work.
		n := atomic.AddInt64(&vm.VMStats.Recompilations, 1)
		if s := vm.Opts.Sink; s != nil {
			s.VMRecompile(m.QualifiedName(), int(n))
		}
	}
	return true
}

// osrCodeCopy returns a private copy of the OSR code table for the caller
// (who holds osrMu) to edit and publish: the map readers hold is never
// written.
func (vm *VM) osrCodeCopy() map[osrSite]exec.Code {
	cur := vm.osrCode.Load()
	if cur == nil {
		return make(map[osrSite]exec.Code, 1)
	}
	next := make(map[osrSite]exec.Code, len(*cur)+1)
	for site, c := range *cur {
		next[site] = c
	}
	return next
}

// recordFailure is the broker's failure callback. It classifies the
// failure before recording anything:
//
//   - A contained compiler panic (broker.PanicError) first captures a
//     minimized crash reproducer into Options.CrashDir, then falls through
//     to permanent blacklisting.
//   - A transient failure (compile budget overrun — broker.Transient)
//     re-arms the unit's hotness trigger with backoff and records nothing:
//     the same compile may succeed later.
//   - Everything else is a permanent property of the method under this
//     compiler and is recorded per compilation unit: a failed OSR entry
//     blacklists only that (method, loop header) pair; the method itself
//     stays eligible for standard tier-up, and vice versa.
func (vm *VM) recordFailure(m *bc.Method, k broker.Key, err error) {
	var pe *broker.PanicError
	if errors.As(err, &pe) {
		vm.captureCrashRepro(m, k, pe)
	}
	if broker.Transient(err) {
		atomic.AddInt64(&vm.VMStats.TransientFailures, 1)
		// Record the bailout with a compact classification
		// ("deadline@pea-fixpoint") rather than the full error text, so a
		// storm of bailouts cannot flood the bounded reason table.
		reason := "transient"
		var be *budget.Err
		if errors.As(err, &be) {
			reason = be.Kind + "@" + be.Phase
		}
		vm.flight.Record(flight.KindBudgetBailout, int32(m.ID), int32(k.EntryBCI),
			0, 0, vm.flight.Reason(reason))
		if k.IsOSR() {
			vm.rearmOSR(m, k.EntryBCI, "transient: "+err.Error())
		} else {
			vm.rearm(m, "transient: "+err.Error(), vm.Interp.Profile.Invocations(m))
		}
		return
	}
	vm.failedMu.Lock()
	vm.failed[failKey{m, k.EntryBCI}] = err
	vm.failedMu.Unlock()
	if k.IsOSR() {
		vm.osrMu.Lock()
		if vm.osrFailed != nil {
			vm.osrFailed[osrSite{m, k.EntryBCI}] = true
		}
		vm.osrMu.Unlock()
		return
	}
	vm.hasFailed[m.ID].Store(true)
}

// Compile builds and optimizes the IR for m under the VM's configuration,
// bypassing the broker and cache. Exposed for tests and tools that need a
// fresh pipeline run.
func (vm *VM) Compile(m *bc.Method) (*ir.Graph, error) {
	return vm.compileEntry(m, vm.speculates(m), broker.NoOSR)
}

// CompileOSR builds and optimizes an on-stack-replacement graph for m
// entered at the loop header entryBCI, bypassing the broker and cache.
func (vm *VM) CompileOSR(m *bc.Method, entryBCI int) (*ir.Graph, error) {
	return vm.compileEntry(m, vm.speculates(m), entryBCI)
}

// compileEntry runs the full pipeline for m; spec selects speculative
// branch pruning, and entryBCI selects the entry point (broker.NoOSR for a
// standard method-entry compile, a loop-header bytecode index for an OSR
// compile). It is safe for concurrent use: every run builds a private graph
// and private phase instances, and the shared inputs (bytecode, profile,
// sink/metrics) are immutable or internally locked.
//
// The compile runs under a per-compile budget built from
// Options.CompileDeadline / Options.MaxIRNodes (nil when both are zero —
// then no budget checks and no clock reads happen at all), polled
// cooperatively at every pipeline phase boundary and PEA fixpoint round. A
// budget overrun unwinds with a structured transient error and the method
// stays interpreted.
func (vm *VM) compileEntry(m *bc.Method, spec bool, entryBCI int) (*ir.Graph, error) {
	bud := budget.New(vm.Opts.CompileDeadline, vm.Opts.MaxIRNodes)
	sink := vm.Opts.Sink
	lvl := vm.Opts.checkLevel()
	var g *ir.Graph
	var err error
	if entryBCI == broker.NoOSR {
		g, err = build.BuildWith(m, sink)
		vm.fault("build", m)
	} else {
		g, err = build.BuildOSRWith(m, entryBCI, sink)
		vm.fault("build-osr", m)
	}
	if err != nil {
		return nil, err
	}
	if bud != nil {
		if err := bud.Check("build", m.QualifiedName(), g.NumNodes()); err != nil {
			return nil, err
		}
	}
	sums := vm.summarySet() // nil unless Options.Summaries
	var calleeSafe func(*ir.Node) []bool
	if sums != nil {
		calleeSafe = sums.ArgSafe
	}
	phases := []opt.Phase{
		&opt.Inliner{BuildGraph: build.Build, Program: vm.Prog, Profile: vm.Interp.Profile, Sink: sink, Summaries: sums},
		opt.Canonicalize{},
		opt.SimplifyCFG{},
		opt.GVN{},
		opt.DCE{},
	}
	pipe := &opt.Pipeline{Phases: phases, Check: lvl, Sink: sink, Budget: bud}
	if err := pipe.Run(g); err != nil {
		return nil, err
	}
	vm.fault("opt", m)
	if spec {
		pr := &opt.BranchPruner{Profile: vm.Interp.Profile, MinTotal: vm.Opts.minPruneTotal()}
		var span obs.PhaseSpan
		if sink != nil {
			span = obs.StartPhase(sink, "prune", m.QualifiedName(), g.NumNodes(), len(g.Blocks))
		}
		changed, err := pr.Run(g)
		if err != nil {
			return nil, err
		}
		span.End(g.NumNodes(), len(g.Blocks))
		vm.fault("prune", m)
		if err := check.Graph(g, lvl); err != nil {
			sink.CheckViolation("prune", m.QualifiedName(), err.Error(), "")
			return nil, fmt.Errorf("vm: branch pruning broke %s: %w", m.QualifiedName(), err)
		}
		if changed {
			// Pruning leaves single-input phis and straight-line
			// chains behind; normalize before escape analysis.
			clean := opt.Standard()
			clean.Check = lvl
			clean.Sink = sink
			clean.Budget = bud
			if err := clean.Run(g); err != nil {
				return nil, err
			}
		}
	}
	if vm.Opts.EA != EAOff {
		var span obs.PhaseSpan
		if sink != nil {
			span = obs.StartPhase(sink, vm.Opts.EA.String(), m.QualifiedName(),
				g.NumNodes(), len(g.Blocks))
		}
		var eaErr error
		conf := pea.Config{Sink: sink, Check: lvl, Budget: bud, Flight: vm.flight,
			CalleeNoEscape: calleeSafe}
		switch vm.Opts.EA {
		case EAFlowInsensitive:
			_, eaErr = ea.Run(g, conf)
		case EAPartial:
			_, eaErr = pea.Run(g, conf)
		}
		vm.fault(vm.Opts.EA.String(), m)
		if eaErr != nil {
			return nil, eaErr
		}
		span.End(g.NumNodes(), len(g.Blocks))
		if sink != nil && sink.WantSnapshots() {
			sink.Snapshot(vm.Opts.EA.String(), m.QualifiedName(),
				func() string { return ir.Dump(g) })
		}
	}
	if err := check.Graph(g, lvl); err != nil {
		sink.CheckViolation(vm.Opts.EA.String(), m.QualifiedName(), err.Error(), "")
		return nil, fmt.Errorf("vm: %s after %v: %w", m.QualifiedName(), vm.Opts.EA, err)
	}
	post := opt.Standard()
	post.Check = lvl
	post.Sink = sink
	post.Budget = bud
	if err := post.Run(g); err != nil {
		return nil, err
	}
	vm.fault("post", m)
	return g, nil
}

// Invalidate drops m's compiled code — the standard entry and every OSR
// entry — recording reason in the invalidation event; the next hot call
// recompiles without speculation (replaying the non-speculative cache entry
// when one exists).
func (vm *VM) Invalidate(m *bc.Method, reason string) {
	invalidated := vm.code[m.ID].Swap(nil) != nil
	if vm.osrCode.Load() != nil {
		vm.osrMu.Lock()
		codes := vm.osrCodeCopy()
		for site := range codes {
			if site.m == m {
				delete(codes, site)
				invalidated = true
			}
		}
		vm.osrCode.Store(&codes)
		vm.osrMu.Unlock()
	}
	if invalidated {
		vm.noSpec[m.ID].Store(true)
		vm.warmProbed[m.ID].Store(false)
		atomic.AddInt64(&vm.VMStats.InvalidatedMethods, 1)
		if s := vm.Opts.Sink; s != nil {
			s.VMInvalidate(m.QualifiedName(), reason)
		}
	}
}

// DrainJIT blocks until every submitted compilation has been resolved
// (installed, replayed from cache, or failed). It is a no-op on a
// synchronous broker.
func (vm *VM) DrainJIT() { vm.jit.Drain() }

// Close releases the VM's private broker. A broker passed in as Options.JIT
// is left running — whoever built it closes it.
func (vm *VM) Close() {
	if vm.jit != vm.Opts.JIT {
		vm.jit.Close()
	}
}

// Broker exposes the VM's compile broker (stats, cache) to tools and tests.
func (vm *VM) Broker() *broker.Broker { return vm.jit }

// Flight exposes the VM's always-on flight recorder (never nil).
func (vm *VM) Flight() *flight.Recorder { return vm.flight }

// Stats returns a consistent snapshot of the VM counters.
func (vm *VM) Stats() Stats {
	return Stats{
		CompiledMethods:    atomic.LoadInt64(&vm.VMStats.CompiledMethods),
		Recompilations:     atomic.LoadInt64(&vm.VMStats.Recompilations),
		InvalidatedMethods: atomic.LoadInt64(&vm.VMStats.InvalidatedMethods),
		OSRCompilations:    atomic.LoadInt64(&vm.VMStats.OSRCompilations),
		OSRRequests:        atomic.LoadInt64(&vm.VMStats.OSRRequests),
		OSREntries:         atomic.LoadInt64(&vm.VMStats.OSREntries),
		WarmInstalls:       atomic.LoadInt64(&vm.VMStats.WarmInstalls),
		PipelineCompiles:   atomic.LoadInt64(&vm.VMStats.PipelineCompiles),
		TransientFailures:  atomic.LoadInt64(&vm.VMStats.TransientFailures),
		Rearms:             atomic.LoadInt64(&vm.VMStats.Rearms),
		CrashRepros:        atomic.LoadInt64(&vm.VMStats.CrashRepros),
	}
}

// CompileError returns the recorded permanent compilation failure for m's
// standard entry point, if any. A failed OSR entry does not poison the
// method here — use OSRCompileError for per-loop-header failures. Used by
// tests to assert that nothing failed silently.
func (vm *VM) CompileError(m *bc.Method) error {
	vm.failedMu.Lock()
	defer vm.failedMu.Unlock()
	return vm.failed[failKey{m, broker.NoOSR}]
}

// OSRCompileError returns the recorded permanent compilation failure for
// m's OSR entry at the loop header entryBCI, if any.
func (vm *VM) OSRCompileError(m *bc.Method, entryBCI int) error {
	vm.failedMu.Lock()
	defer vm.failedMu.Unlock()
	return vm.failed[failKey{m, entryBCI}]
}

// FailedCompilations returns a snapshot of all recorded permanent compile
// failures, one entry per method. A method whose standard-entry compile
// failed reports that error; a method with only OSR-entry failures reports
// the first of those, wrapped with the entry point ("osr@<bci>: ...") so
// harnesses surface it without mistaking it for a method-entry failure.
func (vm *VM) FailedCompilations() map[*bc.Method]error {
	vm.failedMu.Lock()
	defer vm.failedMu.Unlock()
	out := make(map[*bc.Method]error, len(vm.failed))
	for k, err := range vm.failed {
		if k.entryBCI == broker.NoOSR {
			out[k.m] = err // standard-entry failures always win
			continue
		}
		if _, ok := out[k.m]; !ok {
			out[k.m] = fmt.Errorf("osr@%d: %w", k.entryBCI, err)
		}
	}
	return out
}
