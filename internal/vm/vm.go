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
// finished code is published by an atomic pointer store into the VM's
// tier-up table, so the execution thread picks it up on the next call without
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
// the ordinary FrameState path. A loop header is a compilation unit like a
// method entry — same state (unit), same ladder (tierUp), a different
// counter and threshold.
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
	// Summaries is not an input: New sets it to EA != EAOff, the modes
	// whose escape analysis consults the program's inter-procedural
	// escape summaries (internal/summary) at non-inlined calls. The field
	// stays only because the benchmark pipeline (benchmarks/pipeline.go)
	// replays the compiler by hand and reads it.
	Summaries bool
	// OSRThreshold is the back-edge count at which a hot loop triggers an
	// on-stack-replacement compilation of its enclosing method, entered at
	// the loop header mid-invocation. <=0 (the default) disables OSR; the
	// method then tiers up only at call boundaries.
	OSRThreshold int64
	// Seed seeds the deterministic PRNG (default 1).
	Seed uint64
	// MaxSteps bounds interpreted and compiled steps together (0 =
	// unbounded): it becomes the Env's one step budget (rt.Env.MaxSteps).
	MaxSteps int64
	// CheckLevel selects the compiler sanitizer level run between phases
	// (off, basic, strict). The PEA_CHECK environment variable floors the
	// configured level for the whole process. check.Off (the default)
	// adds zero work to the compile path.
	CheckLevel check.Level

	// JIT is the compile broker the VM submits to. nil (the default) gives
	// the VM a private one: synchronous, memory-only, closed by Close. Pass
	// a broker to get anything else — background workers, a bounded queue, a
	// persistent store, a fault-injection hook (the pipeline's points fire
	// the broker's, Broker.FaultHook), or one worker pool and cache shared
	// by many VMs (the tenants of a server). The VM's callbacks travel with
	// each submission, so a shared broker still compiles with and installs
	// into the submitting VM; a rejected submission (full queue) re-arms the
	// method's hotness trigger with backoff. Whoever built a broker closes
	// it.
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

	// Sink is the VM's event stream, shared by the pipeline, the broker's
	// work for this VM and the deopt runtime. Its ring is always on,
	// JFR-style: nil (the default) makes New create a ring-only sink
	// (obs.NewRing), so every VM keeps the JIT's recent compiles, deopts,
	// OSR transfers and materializations. A sink from obs.NewSink also
	// traces: per-phase compile timing, inlining and PEA/EA decisions,
	// tier-up installs, invalidations, recompiles — to its backends, an
	// obs.Metrics registry among them to fold the stream into per-kind
	// counters and per-phase timers. Pass one Sink.Program view per
	// program to share a ring across VMs (New registers the program's
	// method names only on a view that has none).
	Sink *obs.Sink
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

	// methods is the tier-up table, indexed by bc.Method.ID: everything the
	// VM knows about compiling a method lives in its methodState. osrMu
	// guards only the creation of a loop header's unit (see unit); every
	// other access, on the execution thread or a broker worker, is atomic.
	methods []methodState
	osrMu   sync.Mutex

	// jit is Options.JIT, or the private broker New made in its place.
	jit *broker.Broker
	// hooks carries this VM's compile/install/failure callbacks and its
	// program resolver with every submission, so a broker shared between
	// VMs dispatches back to the right tenant.
	hooks broker.Hooks

	// sums is the program's inter-procedural summary set, computed on the
	// first request (sumOnce): PEA asks only at a call that receives a
	// virtual object (EA at every call), so a PEA VM whose code never
	// passes one leaves it nil.
	sums    *summary.Set
	sumOnce sync.Once

	VMStats Stats
}

// unit is the tier-up state of one compilation unit: a method's standard
// entry (entryBCI == broker.NoOSR) or one of its loop headers, which is the
// same thing entered somewhere else (an OSR compile). Every field the ladder
// reads is atomic, so tierUp takes no lock and an install on a broker worker
// races with the execution thread only on atomics.
type unit struct {
	m        *bc.Method
	entryBCI int
	// code is the installed code, nil while the unit is interpreted
	// (a pointer to the interface value, because atomic.Pointer needs a
	// concrete element type).
	code atomic.Pointer[exec.Code]
	// failure is the unit's permanent compilation failure. A failed unit
	// stays interpreted: panics and pipeline errors are compiler bugs that
	// surface in tests, while in production they degrade to interpretation.
	// Transient failures (budget overruns, queue rejections) are never
	// recorded here — they re-arm instead.
	failure atomic.Pointer[error]
	// retryAt gates resubmission after a transient failure or a queue-full
	// rejection: the unit becomes submit-eligible again only once its
	// hotness counter reaches the stored value (exponential backoff on the
	// counter). retryN counts consecutive re-arms; a successful install
	// resets both.
	retryAt atomic.Int64
	retryN  atomic.Int32
	// probed marks a unit whose non-speculative key has been looked up in
	// the broker's memory tier (see warmInstall); cleared by Invalidate so
	// a deoptimized method's units ask again.
	probed atomic.Bool
}

// installed returns the unit's currently published code (nil if none).
func (u *unit) installed() exec.Code {
	if c := u.code.Load(); c != nil {
		return *c
	}
	return nil
}

func (u *unit) isOSR() bool { return u.entryBCI != broker.NoOSR }

// name is the unit's name in events: the method's, with the loop header
// appended for an OSR unit.
func (u *unit) name() string {
	if u.isOSR() {
		return fmt.Sprintf("%s@osr%d", u.m.QualifiedName(), u.entryBCI)
	}
	return u.m.QualifiedName()
}

// methodState is one method's row of the tier-up table.
type methodState struct {
	entry unit
	// osr lists the units of the method's loop headers, in creation order.
	// Every interpreted back edge looks its header up here, so the list is
	// copy-on-write: readers load and scan it without locking (a method has
	// a handful of loops), and a header's first back edge publishes a longer
	// copy under VM.osrMu. Units are never removed.
	osr atomic.Pointer[[]*unit]
	// noSpec marks a method whose speculative code deoptimized; it is
	// recompiled without speculation.
	noSpec atomic.Bool
	// crashCaptured dedups crash-reproducer capture, so a panicking compile
	// resubmitted under different keys (spec/no-spec, OSR entries) minimizes
	// once.
	crashCaptured atomic.Bool
}

// osrUnits returns the units of the method's loop headers seen so far.
func (ms *methodState) osrUnits() []*unit {
	if l := ms.osr.Load(); l != nil {
		return *l
	}
	return nil
}

// unit returns the tier-up state of (m, entryBCI), creating a loop header's
// on first use.
func (vm *VM) unit(m *bc.Method, entryBCI int) *unit {
	ms := &vm.methods[m.ID]
	if entryBCI == broker.NoOSR {
		return &ms.entry
	}
	for _, u := range ms.osrUnits() {
		if u.entryBCI == entryBCI {
			return u
		}
	}
	vm.osrMu.Lock()
	defer vm.osrMu.Unlock()
	cur := ms.osrUnits()
	for _, u := range cur {
		if u.entryBCI == entryBCI {
			return u // created since the lock-free scan
		}
	}
	u := &unit{m: m, entryBCI: entryBCI}
	next := append(cur[:len(cur):len(cur)], u)
	ms.osr.Store(&next)
	return u
}

// New creates a VM for the program.
func New(prog *bc.Program, opts Options) *VM {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Sink == nil {
		opts.Sink = obs.NewRing()
	}
	opts.Summaries = opts.EA != EAOff
	if !opts.Sink.HasMethodNames() {
		opts.Sink.SetMethodNames(MethodNames(prog))
	}
	vm := &VM{
		Prog:    prog,
		Env:     rt.NewEnv(prog, opts.Seed),
		Opts:    opts,
		backend: opts.Backend.impl(),
		methods: make([]methodState, len(prog.Methods)),
		jit:     opts.JIT,
	}
	for i, m := range prog.Methods {
		vm.methods[i].entry = unit{m: m, entryBCI: broker.NoOSR}
	}
	vm.Env.MaxSteps = opts.MaxSteps
	vm.Interp = interp.New(vm.Env)
	vm.Interp.CallHook = vm.interpCallHook
	if opts.OSRThreshold > 0 && !opts.Interpret {
		vm.Interp.OSRHook = vm.osrHook
	}
	vm.Engine = &exec.Engine{Env: vm.Env}
	vm.Engine.Invoke = vm.engineInvoke
	vm.Engine.Deopt = vm.deopt

	vm.hooks = broker.Hooks{
		Compile:  vm.compileForKey,
		Install:  vm.install,
		Fail:     vm.recordFailure,
		Resolver: prog,
		Sink:     opts.Sink,
	}
	if vm.jit == nil {
		vm.jit = broker.New(broker.Options{Check: opts.checkLevel()})
	}
	return vm
}

// MethodNames is the ring's name table for prog: qualified names indexed by
// dense method ID.
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

// CompiledGraph returns the scheduled graph behind m's installed code, or
// nil if the method is interpreted. Safe to call concurrently with
// compilation.
func (vm *VM) CompiledGraph(m *bc.Method) *ir.Graph {
	return vm.OSRGraph(m, broker.NoOSR)
}

// maybeCompiled returns the installed code for m, climbing the tier-up
// ladder with m's invocation count when there is none. In synchronous mode
// a compile the ladder requests completes before this returns; in
// asynchronous mode the interpreter keeps executing m until the broker
// publishes code.
func (vm *VM) maybeCompiled(m *bc.Method) exec.Code {
	if vm.Opts.Interpret {
		return nil
	}
	u := &vm.methods[m.ID].entry
	if c := u.installed(); c != nil {
		return c
	}
	return vm.tierUp(u, vm.Interp.Profile.Invocations(m))
}

// trigger is the value of u's hotness counter at which the ladder submits
// it: invocations against CompileThreshold for a method entry, back edges
// of the header against OSRThreshold for a loop.
func (vm *VM) trigger(u *unit) int64 {
	if u.isOSR() {
		return vm.Opts.OSRThreshold
	}
	return vm.Opts.threshold()
}

// hotness reads u's hotness counter from the profile.
func (vm *VM) hotness(u *unit) int64 {
	if u.isOSR() {
		return vm.Interp.Profile.BackEdges(u.m, u.entryBCI)
	}
	return vm.Interp.Profile.Invocations(u.m)
}

// tierUp is the one tier-up ladder, climbed by a unit without installed code
// each time the execution thread reaches it — a method entry at a call, a
// loop header at a back edge — with count the unit's hotness counter. It
// returns the code to run now, or nil to keep interpreting, and takes no
// lock of the VM's.
//
// A unit that failed permanently, or whose method's standard entry did (if
// the method cannot be compiled from the top, its loops are not worth
// trying), stays interpreted. Otherwise the unit's first visit that would
// compile without speculation asks the broker's memory tier for an artifact
// some earlier VM already paid for, whatever the count. Past the trigger,
// and outside a backoff window and any compile already in flight, the unit
// is submitted: a synchronous broker has installed (or failed) it when
// Submit returns, an asynchronous one publishes later and the final load
// stays nil.
func (vm *VM) tierUp(u *unit, count int64) exec.Code {
	if u.failure.Load() != nil || vm.methods[u.m.ID].entry.failure.Load() != nil {
		return nil
	}
	if !u.probed.Load() && !vm.speculates(u.m) {
		u.probed.Store(true)
		if vm.warmInstall(u) {
			return u.installed()
		}
	}
	if count < vm.trigger(u) || u.retryAt.Load() > count || vm.jit.Pending(u.m, u.entryBCI) {
		return nil
	}
	if u.isOSR() {
		atomic.AddInt64(&vm.VMStats.OSRRequests, 1)
		vm.Opts.Sink.VMOSRRequest(u.m, u.entryBCI, count)
	}
	if !vm.jit.Submit(u.m, count, vm.cacheKey(u.m, u.entryBCI), &vm.hooks) {
		// Rejected (queue full, closing, or a racing duplicate): re-arm the
		// trigger with backoff so the unit stays submit-eligible instead of
		// hammering — or silently losing — the submission.
		vm.rearm(u, "submit-rejected")
	}
	return u.installed()
}

// maxRearmShift caps the exponential backoff: re-armed units never stop
// retrying, the retries just become geometrically rarer until the gap
// plateaus at trigger<<maxRearmShift additional counts.
const maxRearmShift = 5

// rearm schedules u's next submission attempt after a transient failure or
// queue rejection: the unit becomes submit-eligible again once its hotness
// counter passes its current value + trigger<<attempt (exponential backoff
// on the counter, HotSpot-style re-profiling instead of a terminal drop).
func (vm *VM) rearm(u *unit, reason string) {
	n := u.retryN.Add(1)
	shift := int64(n - 1)
	if shift > maxRearmShift {
		shift = maxRearmShift
	}
	next := vm.hotness(u) + vm.trigger(u)<<shift
	u.retryAt.Store(next)
	atomic.AddInt64(&vm.VMStats.Rearms, 1)
	if s := vm.Opts.Sink; s.Traces() {
		s.VMRearm(u.name(), reason, int(n), next)
	}
}

// speculates reports whether a compile of m would apply speculative branch
// pruning: speculation is enabled and m has not deoptimized out of it.
func (vm *VM) speculates(m *bc.Method) bool {
	return vm.Opts.Speculate && !vm.methods[m.ID].noSpec.Load()
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
		MethodFP: vm.Prog.MethodFingerprint(m),
		Name:     m.QualifiedName(),
		Mode:     int(vm.Opts.EA),
		Spec:     vm.speculates(m),
		EntryBCI: entryBCI,
		Backend:  vm.backend.Name(),
	}
	if k.Spec {
		k.Fingerprint = vm.Interp.Profile.Fingerprint(vm.Opts.minPruneTotal())
	}
	return k
}

// warmInstall asks the broker's memory tier for u's non-speculative
// artifact before the unit is hot, and on a hit installs it through the same
// install boundary a threshold submission's replay crosses. It reports
// whether code was published. The ladder asks once per unit and only while
// the method would compile without speculation; a miss costs a map lookup,
// counts nowhere, and leaves the unit to the ordinary hotness trigger, which
// also covers the disk tier.
func (vm *VM) warmInstall(u *unit) bool {
	k := vm.cacheKey(u.m, u.entryBCI)
	a, ok := vm.jit.Cached(u.m, k, &vm.hooks)
	return ok && vm.installFrom(u.m, k, a, true, obs.TriggerCacheFirst)
}

// Summaries returns the program's inter-procedural summary set, computing it
// on the first call.
func (vm *VM) Summaries() *summary.Set {
	vm.sumOnce.Do(func() {
		vm.sums = summary.Compute(vm.Prog, summary.Options{Sink: vm.Opts.Sink})
	})
	return vm.sums
}

// calleeNoEscape is the VM's pea.Config.CalleeNoEscape: the summary set's
// verdict for call, with the set computed on the first call that asks.
func (vm *VM) calleeNoEscape(call *ir.Node) []bool { return vm.Summaries().ArgSafe(call) }

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
	if sink.Traces() {
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

// fault invokes the broker's fault-injection hook at a named pipeline
// point. A nil hook (the default) costs one pointer test.
func (vm *VM) fault(point string, m *bc.Method) {
	if f := vm.jit.FaultHook(); f != nil {
		f(point, m.QualifiedName())
	}
}

// install is the broker's installation callback for code a hotness-triggered
// submission resolved; it may run on a broker worker goroutine.
func (vm *VM) install(m *bc.Method, k broker.Key, a broker.Artifact, fromCache bool) {
	vm.installFrom(m, k, a, fromCache, obs.TriggerThreshold)
}

// installFrom is the install boundary: it publishes the lowered code
// atomically into the unit k names and reports whether it did. trigger names
// what asked for the code (the unit's hotness threshold, or a first-visit
// look into the cache).
func (vm *VM) installFrom(m *bc.Method, k broker.Key, a broker.Artifact, fromCache bool, trigger string) bool {
	u := vm.unit(m, k.EntryBCI)
	noSpec := &vm.methods[m.ID].noSpec
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
				vm.rearm(u, "rebind: "+err.Error())
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
	if k.Spec && noSpec.Load() {
		// The method deoptimized while this speculative compile was in
		// flight; installing it would immediately deoptimize again.
		// Drop the artifact — the next hot visit resubmits with
		// Spec=false.
		return false
	}
	if trigger == obs.TriggerCacheFirst {
		atomic.AddInt64(&vm.VMStats.WarmInstalls, 1)
	}
	u.code.Store(&code)
	// A successful install clears the transient-failure backoff, so a later
	// invalidation re-enters the retry ladder from the bottom.
	u.retryN.Store(0)
	u.retryAt.Store(0)
	installs := &vm.VMStats.CompiledMethods
	if u.isOSR() {
		installs = &vm.VMStats.OSRCompilations
	}
	atomic.AddInt64(installs, 1)
	s := vm.Opts.Sink
	if s.Traces() {
		s.VMCompile(u.name(), int(vm.hotness(u)), trigger)
	}
	if !u.isOSR() && noSpec.Load() && !fromCache {
		// Only pipeline re-runs of a method entry count as recompilations;
		// cache replays after an invalidation reuse earlier work.
		n := atomic.AddInt64(&vm.VMStats.Recompilations, 1)
		if s.Traces() {
			s.VMRecompile(m.QualifiedName(), int(n))
		}
	}
	return true
}

// recordFailure is the broker's failure callback. It classifies the
// failure before recording anything:
//
//   - A contained compiler panic (broker.PanicError) first captures a
//     minimized crash reproducer into Options.CrashDir, then falls through
//     to permanent blacklisting.
//   - A transient failure (compile budget overrun — broker.Transient)
//     re-arms the unit's hotness trigger with backoff and records nothing
//     on the unit: the same compile may succeed later. (The broker's
//     compile_fail event already names the bailout.)
//   - Everything else is a permanent property of the unit under this
//     compiler and is recorded on it alone: a failed OSR entry blacklists
//     only that (method, loop header) pair and the method itself stays
//     eligible for standard tier-up. (The ladder reads the other direction
//     differently: see tierUp.)
func (vm *VM) recordFailure(m *bc.Method, k broker.Key, err error) {
	var pe *broker.PanicError
	if errors.As(err, &pe) {
		vm.captureCrashRepro(m, k, pe)
	}
	u := vm.unit(m, k.EntryBCI)
	if broker.Transient(err) {
		atomic.AddInt64(&vm.VMStats.TransientFailures, 1)
		vm.rearm(u, "transient: "+err.Error())
		return
	}
	u.failure.Store(&err)
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
// This is the one place the phase sequence is written down: build,
// opt.PreEA, the branch pruner (spec only, followed by the Standard phases
// when it pruned), EA or PEA, then the Standard phases. Every phase crosses
// one opt.Pipeline boundary — span, budget poll, sanitizer check,
// violation event, snapshot — and a snapshot consumer on the sink also
// receives the stages irdump prints: built, inlined, the EA mode's name,
// and final.
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
	stage(sink, "built", m, g)
	pipe := &opt.Pipeline{Check: vm.Opts.checkLevel(), Sink: sink, Budget: bud}
	run := func(phases []opt.Phase) error {
		pipe.Phases = phases
		return pipe.Run(g)
	}
	if err := run(opt.PreEA(vm.Prog, sink)); err != nil {
		return nil, err
	}
	vm.fault("opt", m)
	stage(sink, "inlined", m, g)
	if spec {
		pruned, err := pipe.RunPhase(g, &opt.BranchPruner{Profile: vm.Interp.Profile, MinTotal: vm.Opts.minPruneTotal()})
		vm.fault("prune", m)
		if err != nil {
			return nil, err
		}
		if pruned {
			// Pruning leaves single-input phis and straight-line
			// chains behind; normalize before escape analysis.
			if err := run(opt.Standard().Phases); err != nil {
				return nil, err
			}
		}
	}
	if vm.Opts.EA != EAOff {
		conf := pea.Config{Sink: sink, Check: pipe.Check, Budget: bud, CalleeNoEscape: vm.calleeNoEscape}
		_, err := pipe.RunPhase(g, escapePhase{vm.Opts.EA, conf})
		vm.fault(vm.Opts.EA.String(), m)
		if err != nil {
			return nil, err
		}
	}
	if err := run(opt.Standard().Phases); err != nil {
		return nil, err
	}
	vm.fault("post", m)
	stage(sink, "final", m, g)
	return g, nil
}

// stage publishes g as the named stage of m's compile to the sink's
// snapshot consumers, if it has any.
func stage(sink *obs.Sink, name string, m *bc.Method, g *ir.Graph) {
	if sink.WantSnapshots() {
		sink.Snapshot(name, m.QualifiedName(), g)
	}
}

// escapePhase is a compile's EA or PEA run as an opt.Phase, named after its
// mode ("ea", "pea"), so that it crosses the same boundary as every other
// phase.
type escapePhase struct {
	mode EAMode
	conf pea.Config
}

func (p escapePhase) Name() string { return p.mode.String() }

func (p escapePhase) Run(g *ir.Graph) (bool, error) {
	run := pea.Run
	if p.mode == EAFlowInsensitive {
		run = ea.Run
	}
	res, err := run(g, p.conf)
	return res.Changed, err
}

// Invalidate drops m's compiled code — the standard entry and every OSR
// entry — recording reason in the invalidation event; the next hot visit of
// each unit recompiles without speculation, after asking the memory tier
// again for the non-speculative artifact.
func (vm *VM) Invalidate(m *bc.Method, reason string) {
	ms := &vm.methods[m.ID]
	units := append([]*unit{&ms.entry}, ms.osrUnits()...)
	invalidated := false
	for _, u := range units {
		if u.code.Swap(nil) != nil {
			invalidated = true
		}
	}
	if !invalidated {
		return
	}
	ms.noSpec.Store(true)
	for _, u := range units {
		u.probed.Store(false)
	}
	atomic.AddInt64(&vm.VMStats.InvalidatedMethods, 1)
	if s := vm.Opts.Sink; s.Traces() {
		s.VMInvalidate(m.QualifiedName(), reason)
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
	return vm.OSRCompileError(m, broker.NoOSR)
}

// OSRCompileError returns the recorded permanent compilation failure for
// m's OSR entry at the loop header entryBCI, if any.
func (vm *VM) OSRCompileError(m *bc.Method, entryBCI int) error {
	if err := vm.unit(m, entryBCI).failure.Load(); err != nil {
		return *err
	}
	return nil
}

// FailedCompilations returns a snapshot of all recorded permanent compile
// failures, one entry per method. A method whose standard-entry compile
// failed reports that error; a method with only OSR-entry failures reports
// the first of those, wrapped with the entry point ("osr@<bci>: ...") so
// harnesses surface it without mistaking it for a method-entry failure.
func (vm *VM) FailedCompilations() map[*bc.Method]error {
	out := make(map[*bc.Method]error)
	for i := range vm.methods {
		ms := &vm.methods[i]
		if err := ms.entry.failure.Load(); err != nil {
			out[ms.entry.m] = *err // standard-entry failures always win
			continue
		}
		for _, u := range ms.osrUnits() {
			if err := u.failure.Load(); err != nil {
				out[u.m] = fmt.Errorf("osr@%d: %w", u.entryBCI, *err)
				break
			}
		}
	}
	return out
}
