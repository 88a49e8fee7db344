// Package obs is the unified observability layer for the compiler and VM:
// a typed structured-event sink (JSONL and human-readable text backends)
// plus a metrics registry (counters, gauges, timers) published via expvar.
//
// Design constraints:
//
//   - A nil *Sink and a nil *Metrics are valid, fully inert receivers. Every
//     emit helper takes only scalar arguments and returns immediately on a
//     nil receiver, so the disabled path performs no allocations and no
//     interface conversions. This is load-bearing: the sink is threaded
//     through the hot compile path (build → opt → PEA → VM) and the
//     no-alloc guarantee is enforced by BenchmarkCompileNilSink.
//
//   - Events are strongly typed by Kind. Each pipeline layer has its own
//     family: phase timing (phase_start/phase_end), inlining decisions,
//     PEA decisions (virtualize, materialize, merge_materialize,
//     lock_elide, pea_round, pea_fixpoint, pea_bailout), EA baseline
//     verdicts, and VM lifecycle (compile, deopt, rematerialize,
//     invalidate, recompile).
//
//   - Time is observed through a settable clock so golden-file tests can
//     pin timestamps and durations to deterministic values.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sync"
	"time"
)

// Kind names the type of a structured event. Values are stable strings that
// appear verbatim in the JSONL output; tests golden-match them.
type Kind string

// Event kinds, grouped by pipeline layer.
const (
	// Phase timing (front end and optimizer).
	KindPhaseStart Kind = "phase_start"
	KindPhaseEnd   Kind = "phase_end"

	// Inlining decisions.
	KindInline Kind = "inline"

	// PEA decisions (paper §4–§5).
	KindVirtualize       Kind = "virtualize"
	KindMaterialize      Kind = "materialize"
	KindMergeMaterialize Kind = "merge_materialize"
	KindLockElide        Kind = "lock_elide"
	KindPEARound         Kind = "pea_round"
	KindPEAFixpoint      Kind = "pea_fixpoint"
	KindPEABailout       Kind = "pea_bailout"
	KindPEAState         Kind = "pea_state"

	// EA baseline verdicts (whole-method escape analysis).
	KindEAVerdict Kind = "ea_verdict"

	// Inter-procedural escape summaries: a summary set becomes available
	// (computed or loaded from a cache tier), and a PEA decision kept a
	// virtual object virtual across a non-inlined call because every
	// possible callee's summary proves the argument position unobserved.
	KindSummary            Kind = "summary"
	KindSummaryKeptVirtual Kind = "summary_kept_virtual"

	// VM lifecycle.
	KindVMCompile       Kind = "vm_compile"
	KindVMDeopt         Kind = "vm_deopt"
	KindVMRematerialize Kind = "vm_rematerialize"
	KindVMInvalidate    Kind = "vm_invalidate"
	KindVMRecompile     Kind = "vm_recompile"
	// On-stack replacement: a hot loop header requests compilation of an
	// alternate entry point, and an interpreter frame is transferred into
	// the installed OSR code mid-loop.
	KindVMOSRRequest Kind = "vm_osr_request"
	KindVMOSREnter   Kind = "vm_osr_enter"

	// Compile-broker lifecycle: a hot method enters the queue, compiled
	// code is installed (freshly compiled or replayed from the code
	// cache), a duplicate submission is coalesced, or a submission is
	// rejected because the bounded queue is full.
	KindBrokerSubmit  Kind = "broker_submit"
	KindBrokerInstall Kind = "broker_install"
	KindBrokerDedup   Kind = "broker_dedup"
	KindBrokerReject  Kind = "broker_reject"
	// Fault containment: a compile pipeline run panicked and the broker
	// converted the panic into a structured per-method failure (the VM
	// keeps running; the method degrades to the interpreter).
	KindBrokerPanic Kind = "broker_panic"

	// Compile retry/backoff: a transiently failed or queue-rejected
	// submission was re-armed — the method becomes submit-eligible again
	// once its hotness counter passes the backed-off threshold.
	KindVMRearm Kind = "vm_rearm"
	// Crash forensics: a minimized reproducer for a compiler panic was
	// written to the crash directory (HotSpot replay-file analogue).
	KindVMCrashRepro Kind = "vm_crash_repro"

	// IR snapshot hook (used by irdump): the event carries the phase name
	// whose output the snapshot represents; the rendered IR is delivered
	// to registered SnapshotFunc callbacks, not serialized into the event.
	KindIRSnapshot Kind = "ir_snapshot"

	// Checker violation: the leveled IR sanitizer found a broken
	// invariant after a phase. Reason carries the violation, Detail the
	// phase (and, when available, a before/after IR diff summary).
	KindCheckViolation Kind = "check_violation"
)

// Event is one structured observability record. Fields are omitted from the
// JSON encoding when empty so each line stays readable and schema-stable.
type Event struct {
	// Seq is a monotonically increasing sequence number per sink.
	Seq int64 `json:"seq"`
	// TNS is nanoseconds since the sink was created (deterministic under a
	// test clock).
	TNS int64 `json:"t_ns"`
	// Kind discriminates the event family.
	Kind Kind `json:"kind"`
	// Phase is the compiler phase or VM stage that emitted the event.
	Phase string `json:"phase,omitempty"`
	// Method is the qualified method name the event concerns.
	Method string `json:"method,omitempty"`
	// Site is the allocation-site identity ("Class.method@bci") a PEA/EA
	// decision or rematerialization is attributed to. Allocation sites are
	// stable under inlining: the site names the method that contains the
	// `new` in its bytecode, not the method being compiled.
	Site string `json:"site,omitempty"`
	// Detail is a free-form human hint (callee name, class name, …).
	Detail string `json:"detail,omitempty"`
	// Obj is a PEA virtual-object id ("o3") or VM vobj index.
	Obj string `json:"obj,omitempty"`
	// Node is the IR node ("v12") or position the event is anchored at.
	Node string `json:"node,omitempty"`
	// Block is the IR block ("b2") the event is anchored at.
	Block string `json:"block,omitempty"`
	// Reason explains a decision (materialization cause, deopt reason…).
	Reason string `json:"reason,omitempty"`
	// Round is the PEA fixpoint round, when applicable.
	Round int `json:"round,omitempty"`
	// NodesBefore/NodesAfter and BlocksBefore/BlocksAfter bracket phase
	// events with graph sizes.
	NodesBefore  int `json:"nodes_before,omitempty"`
	NodesAfter   int `json:"nodes_after,omitempty"`
	BlocksBefore int `json:"blocks_before,omitempty"`
	BlocksAfter  int `json:"blocks_after,omitempty"`
	// DurationNS is the wall time of the phase, on phase_end events.
	DurationNS int64 `json:"duration_ns,omitempty"`
}

// Backend consumes events from a Sink. Implementations must be safe for the
// Sink's locking discipline: the sink serializes Write calls.
type Backend interface {
	Write(e *Event)
}

// SnapshotFunc receives per-phase IR snapshots (see Sink.Snapshot). The
// renderer is only invoked if at least one snapshot func is registered.
type SnapshotFunc func(phase, method string, render func() string)

// Sink fans events out to backends. A nil *Sink is valid and inert: all
// emit helpers return immediately without allocating.
type Sink struct {
	mu       sync.Mutex
	seq      int64
	start    time.Time
	now      func() time.Time
	backends []Backend
	snaps    []SnapshotFunc
	metrics  *Metrics
}

// NewSink creates a sink writing to the given backends. Attach a metrics
// registry with SetMetrics to have decision events bump counters
// automatically.
func NewSink(backends ...Backend) *Sink {
	s := &Sink{now: time.Now, backends: backends}
	s.start = s.now()
	return s
}

// SetClock replaces the sink's time source (for deterministic tests). The
// sink's zero point is reset to the clock's current value.
func (s *Sink) SetClock(now func() time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.now = now
	s.start = now()
	s.mu.Unlock()
}

// SetMetrics attaches a metrics registry; decision events will also bump
// the corresponding counters so event streams and metric snapshots agree.
func (s *Sink) SetMetrics(m *Metrics) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.metrics = m
	s.mu.Unlock()
}

// Metrics returns the attached registry (nil-safe).
func (s *Sink) Metrics() *Metrics {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics
}

// AddBackend appends a backend to the fan-out list.
func (s *Sink) AddBackend(b Backend) {
	if s == nil || b == nil {
		return
	}
	s.mu.Lock()
	s.backends = append(s.backends, b)
	s.mu.Unlock()
}

// RemoveBackend detaches a backend previously added with AddBackend (or
// passed to NewSink). Used by transient attachments such as irdump -trace,
// which logs the escape analysis only. Identity is decided by sameBackend,
// which is safe for uncomparable backend types (such as FuncBackend).
func (s *Sink) RemoveBackend(b Backend) {
	if s == nil || b == nil {
		return
	}
	s.mu.Lock()
	for i, x := range s.backends {
		if sameBackend(x, b) {
			s.backends = append(s.backends[:i], s.backends[i+1:]...)
			break
		}
	}
	s.mu.Unlock()
}

// sameBackend reports whether two backends are the same attachment.
// Dynamic types that Go cannot compare (functions, slices) are matched by
// reflect identity of their data pointer instead of panicking.
func sameBackend(a, b Backend) bool {
	ta := reflect.TypeOf(a)
	if ta != reflect.TypeOf(b) {
		return false
	}
	if ta.Comparable() {
		return a == b
	}
	switch ta.Kind() {
	case reflect.Func, reflect.Slice, reflect.Map, reflect.Chan:
		return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
	default:
		return false
	}
}

// OnSnapshot registers a callback for per-phase IR snapshots.
func (s *Sink) OnSnapshot(f SnapshotFunc) {
	if s == nil || f == nil {
		return
	}
	s.mu.Lock()
	s.snaps = append(s.snaps, f)
	s.mu.Unlock()
}

// WantSnapshots reports whether any snapshot consumer is registered, so
// callers can skip rendering IR text when nobody is listening.
func (s *Sink) WantSnapshots() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.snaps) > 0
}

// Snapshot delivers a lazily rendered IR snapshot for the given phase to
// all registered snapshot consumers and records an ir_snapshot event.
func (s *Sink) Snapshot(phase, method string, render func() string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	snaps := s.snaps
	s.mu.Unlock()
	if len(snaps) == 0 {
		return
	}
	s.emit(&Event{Kind: KindIRSnapshot, Phase: phase, Method: method})
	for _, f := range snaps {
		f(phase, method, render)
	}
}

// emit stamps and writes an event. The caller must not retain e.
func (s *Sink) emit(e *Event) {
	s.mu.Lock()
	s.seq++
	e.Seq = s.seq
	e.TNS = s.now().Sub(s.start).Nanoseconds()
	for _, b := range s.backends {
		b.Write(e)
	}
	s.mu.Unlock()
}

// --- Typed emit helpers -------------------------------------------------
//
// Each helper takes only scalars and early-returns on a nil receiver so the
// disabled path is allocation-free (the Event literal is only constructed
// after the nil check, and never escapes the enabled path's emit call).

// PhaseStart records the beginning of a compiler phase.
func (s *Sink) PhaseStart(phase, method string, nodes, blocks int) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindPhaseStart, Phase: phase, Method: method,
		NodesBefore: nodes, BlocksBefore: blocks})
}

// PhaseEnd records the end of a compiler phase with size deltas and wall
// time, and feeds the attached metrics registry's per-phase timers.
func (s *Sink) PhaseEnd(phase, method string, nodesBefore, blocksBefore, nodesAfter, blocksAfter int, d time.Duration) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindPhaseEnd, Phase: phase, Method: method,
		NodesBefore: nodesBefore, BlocksBefore: blocksBefore,
		NodesAfter: nodesAfter, BlocksAfter: blocksAfter,
		DurationNS: d.Nanoseconds()})
	s.Metrics().ObservePhase(phase, d, nodesAfter-nodesBefore)
}

// CheckViolation records an IR sanitizer violation found after a phase.
// The reason is the checker's error; detail typically names what the
// forensic dump diff revealed (or is empty).
func (s *Sink) CheckViolation(phase, method, reason, detail string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindCheckViolation, Phase: phase, Method: method,
		Reason: reason, Detail: detail})
	s.Metrics().Add(MetricCheckViolations, 1)
}

// SummaryReady records that an inter-procedural summary set is available:
// methods summarized, ref parameters proven no-escape, predicate edges,
// and where the set came from ("computed", "memory", "store").
func (s *Sink) SummaryReady(methods, noEscape, preds int, source string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindSummary, Phase: "summary", Reason: source,
		Detail: fmt.Sprintf("methods=%d no_escape_params=%d preds=%d", methods, noEscape, preds)})
	s.Metrics().Add(MetricSummarySets, 1)
}

// SummaryKeptVirtual records that PEA kept a virtual object virtual across
// a non-inlined call at node because the callee summary proves the
// argument unobserved, attributed to the object's allocation site.
func (s *Sink) SummaryKeptVirtual(method, obj, node, block, callee, site string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindSummaryKeptVirtual, Phase: "pea", Method: method,
		Obj: obj, Node: node, Block: block, Detail: callee, Site: site})
	s.Metrics().Add(MetricSummaryKept, 1)
}

// Inline records an inlining decision: callee inlined into method at node.
func (s *Sink) Inline(method, callee, node string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindInline, Phase: "inline", Method: method,
		Detail: callee, Node: node})
	s.Metrics().Add(MetricInlines, 1)
}

// Virtualize records a PEA allocation-virtualization decision. site is the
// allocation-site identity ("Class.method@bci") for escape attribution.
func (s *Sink) Virtualize(method, obj, class, node, site string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindVirtualize, Phase: "pea", Method: method,
		Obj: obj, Detail: class, Node: node, Site: site})
	s.Metrics().Add(MetricVirtualized, 1)
}

// Materialize records a PEA materialization with its cause and position,
// attributed to the allocation site.
func (s *Sink) Materialize(method, obj, node, block, reason, site string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindMaterialize, Phase: "pea", Method: method,
		Obj: obj, Node: node, Block: block, Reason: reason, Site: site})
	s.Metrics().Add(MetricMaterialized, 1)
}

// MergeMaterialize records a materialization forced by a control-flow merge
// (paper §4.3, Figure 6), attributed to the allocation site.
func (s *Sink) MergeMaterialize(method, obj, block, reason, site string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindMergeMaterialize, Phase: "pea", Method: method,
		Obj: obj, Block: block, Reason: reason, Site: site})
	s.Metrics().Add(MetricMergeMaterialized, 1)
	s.Metrics().Add(MetricMaterialized, 1)
}

// LockElide records an elided monitor operation on a virtual object,
// attributed to the object's allocation site.
func (s *Sink) LockElide(method, obj, node, op, site string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindLockElide, Phase: "pea", Method: method,
		Obj: obj, Node: node, Detail: op, Site: site})
	s.Metrics().Add(MetricLocksElided, 1)
}

// PEARound records the start of a PEA fixpoint iteration round.
func (s *Sink) PEARound(method string, round int) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindPEARound, Phase: "pea", Method: method, Round: round})
}

// PEAFixpoint records loop-state convergence after the given round count.
func (s *Sink) PEAFixpoint(method string, rounds int) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindPEAFixpoint, Phase: "pea", Method: method, Round: rounds})
}

// PEABailout records PEA giving up on a method, with the reason.
func (s *Sink) PEABailout(method, reason string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindPEABailout, Phase: "pea", Method: method, Reason: reason})
	s.Metrics().Add(MetricPEABailouts, 1)
}

// PEAState records a formatted PEA abstract-state line (block entry change
// during the fixpoint). Detail carries the rendered state.
func (s *Sink) PEAState(method, block, state string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindPEAState, Phase: "pea", Method: method,
		Block: block, Detail: state})
}

// EAVerdict records the whole-method escape-analysis baseline verdict for
// an allocation: verdict is "captured" or "escapes", reason the cause,
// site the allocation-site identity.
func (s *Sink) EAVerdict(method, node, verdict, reason, site string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindEAVerdict, Phase: "ea", Method: method,
		Node: node, Detail: verdict, Reason: reason, Site: site})
	if verdict == "captured" {
		s.Metrics().Add(MetricEACaptured, 1)
	} else {
		s.Metrics().Add(MetricEAEscaped, 1)
	}
}

// What asked for the code a vm_compile event installs (its Reason).
const (
	// TriggerThreshold: the unit crossed its hotness threshold and was
	// submitted to the broker (which compiled it or replayed a cache tier).
	TriggerThreshold = "threshold"
	// TriggerCacheFirst: the VM found the artifact in the broker's memory
	// tier before the unit was hot — at the method's first call or the
	// loop header's first back edge.
	TriggerCacheFirst = "cache-first"
)

// VMCompile records the installation of compiled code for a method (or,
// named "Class.method@osr<bci>", one OSR entry point); trigger is
// TriggerThreshold or TriggerCacheFirst.
func (s *Sink) VMCompile(method string, invocations int, trigger string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindVMCompile, Phase: "vm", Method: method, Round: invocations, Reason: trigger})
	s.Metrics().Add(MetricVMCompiles, 1)
}

// VMDeopt records a deoptimization with its reason at the given node.
func (s *Sink) VMDeopt(method, node, reason string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindVMDeopt, Phase: "vm", Method: method,
		Node: node, Reason: reason})
	s.Metrics().Add(MetricVMDeopts, 1)
}

// VMRematerialize records one virtual object rematerialized during deopt,
// attributed to its original allocation site.
func (s *Sink) VMRematerialize(method, obj, class, site string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindVMRematerialize, Phase: "vm", Method: method,
		Obj: obj, Detail: class, Site: site})
	s.Metrics().Add(MetricVMRemats, 1)
}

// VMInvalidate records invalidation of a compiled method.
func (s *Sink) VMInvalidate(method, reason string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindVMInvalidate, Phase: "vm", Method: method, Reason: reason})
	s.Metrics().Add(MetricVMInvalidations, 1)
}

// VMOSRRequest records a hot loop header (bci) requesting an on-stack-
// replacement compile after count back edges.
func (s *Sink) VMOSRRequest(method string, bci int, count int) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindVMOSRRequest, Phase: "vm", Method: method,
		Node: fmt.Sprintf("bci%d", bci), Round: count})
	s.Metrics().Add(MetricVMOSRRequests, 1)
}

// VMOSREnter records an interpreter frame transferring into compiled OSR
// code at the loop header bci.
func (s *Sink) VMOSREnter(method string, bci int) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindVMOSREnter, Phase: "vm", Method: method,
		Node: fmt.Sprintf("bci%d", bci)})
	s.Metrics().Add(MetricVMOSREntries, 1)
}

// VMRecompile records a method being compiled again after invalidation.
func (s *Sink) VMRecompile(method string, generation int) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindVMRecompile, Phase: "vm", Method: method, Round: generation})
	s.Metrics().Add(MetricVMRecompiles, 1)
}

// BrokerSubmit records a hot method entering the compile queue. hotness is
// the invocation count that triggered tier-up, depth the queue depth after
// the submission.
func (s *Sink) BrokerSubmit(method string, hotness, depth int) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindBrokerSubmit, Phase: "broker", Method: method,
		Round: hotness, NodesAfter: depth})
	s.Metrics().Add(MetricBrokerSubmits, 1)
}

// BrokerInstall records compiled code being published for a method. source
// is "compiled" for a fresh pipeline run, "cache" for an in-memory
// code-cache replay, or "disk" for an artifact reloaded and re-verified
// from the persistent store; the cache counters are bumped accordingly.
func (s *Sink) BrokerInstall(method, source string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindBrokerInstall, Phase: "broker", Method: method, Detail: source})
	switch source {
	case "cache":
		s.Metrics().Add(MetricBrokerCacheHits, 1)
	case "disk":
		s.Metrics().Add(MetricBrokerDiskHits, 1)
	default:
		s.Metrics().Add(MetricBrokerCacheMisses, 1)
		s.Metrics().Add(MetricBrokerCompiles, 1)
	}
}

// BrokerDedup records a submission coalesced with an in-flight compile of
// the same method.
func (s *Sink) BrokerDedup(method string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindBrokerDedup, Phase: "broker", Method: method})
	s.Metrics().Add(MetricBrokerDedups, 1)
}

// BrokerReject records a submission dropped because the bounded queue was
// full.
func (s *Sink) BrokerReject(method, reason string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindBrokerReject, Phase: "broker", Method: method, Reason: reason})
	s.Metrics().Add(MetricBrokerRejects, 1)
}

// BrokerPanic records a compile pipeline panic contained by the broker:
// the panic value is carried in Reason; the method degrades to the
// interpreter instead of the process dying.
func (s *Sink) BrokerPanic(method, reason string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindBrokerPanic, Phase: "broker", Method: method, Reason: reason})
	s.Metrics().Add(MetricBrokerPanics, 1)
}

// VMRearm records a transiently failed (or queue-rejected) compilation
// being re-armed with backoff: attempt is the retry ordinal, nextHotness
// the hotness-counter value at which the method becomes submit-eligible
// again.
func (s *Sink) VMRearm(method, reason string, attempt int, nextHotness int64) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindVMRearm, Phase: "vm", Method: method, Reason: reason,
		Round: attempt, NodesAfter: int(nextHotness)})
	s.Metrics().Add(MetricVMRearms, 1)
}

// VMCrashRepro records a minimized compiler-crash reproducer being written
// to the crash directory; detail is the file path.
func (s *Sink) VMCrashRepro(method, path string) {
	if s == nil {
		return
	}
	s.emit(&Event{Kind: KindVMCrashRepro, Phase: "vm", Method: method, Detail: path})
	s.Metrics().Add(MetricVMCrashRepros, 1)
}

// --- PhaseSpan ----------------------------------------------------------

// PhaseSpan brackets a phase: StartPhase emits phase_start and captures the
// clock; End emits phase_end with deltas. The zero PhaseSpan (from a nil
// sink) is inert.
type PhaseSpan struct {
	sink         *Sink
	phase        string
	method       string
	nodesBefore  int
	blocksBefore int
	t0           time.Time
}

// StartPhase begins a phase span on s (which may be nil).
func StartPhase(s *Sink, phase, method string, nodes, blocks int) PhaseSpan {
	if s == nil {
		return PhaseSpan{}
	}
	s.PhaseStart(phase, method, nodes, blocks)
	s.mu.Lock()
	t0 := s.now()
	s.mu.Unlock()
	return PhaseSpan{sink: s, phase: phase, method: method,
		nodesBefore: nodes, blocksBefore: blocks, t0: t0}
}

// End completes the span with the post-phase graph sizes.
func (p PhaseSpan) End(nodes, blocks int) {
	if p.sink == nil {
		return
	}
	p.sink.mu.Lock()
	d := p.sink.now().Sub(p.t0)
	p.sink.mu.Unlock()
	p.sink.PhaseEnd(p.phase, p.method, p.nodesBefore, p.blocksBefore, nodes, blocks, d)
}

// --- Backends -----------------------------------------------------------

// JSONBackend writes one JSON object per line (JSONL).
type JSONBackend struct {
	w   io.Writer
	enc *json.Encoder
}

// NewJSONBackend creates a JSONL backend over w.
func NewJSONBackend(w io.Writer) *JSONBackend {
	return &JSONBackend{w: w, enc: json.NewEncoder(w)}
}

// Write implements Backend.
func (b *JSONBackend) Write(e *Event) {
	_ = b.enc.Encode(e) // Encoder appends '\n' after each value.
}

// TextBackend writes one human-readable line per event.
type TextBackend struct {
	w io.Writer
}

// NewTextBackend creates a text backend over w.
func NewTextBackend(w io.Writer) *TextBackend {
	return &TextBackend{w: w}
}

// Write implements Backend.
func (b *TextBackend) Write(e *Event) {
	fmt.Fprintf(b.w, "%s", e.Kind)
	if e.Phase != "" && e.Phase != string(e.Kind) {
		fmt.Fprintf(b.w, " phase=%s", e.Phase)
	}
	if e.Method != "" {
		fmt.Fprintf(b.w, " method=%s", e.Method)
	}
	if e.Site != "" {
		fmt.Fprintf(b.w, " site=%s", e.Site)
	}
	if e.Obj != "" {
		fmt.Fprintf(b.w, " obj=%s", e.Obj)
	}
	if e.Node != "" {
		fmt.Fprintf(b.w, " node=%s", e.Node)
	}
	if e.Block != "" {
		fmt.Fprintf(b.w, " block=%s", e.Block)
	}
	if e.Detail != "" {
		fmt.Fprintf(b.w, " detail=%q", e.Detail)
	}
	if e.Reason != "" {
		fmt.Fprintf(b.w, " reason=%s", e.Reason)
	}
	if e.Round != 0 {
		fmt.Fprintf(b.w, " round=%d", e.Round)
	}
	if e.Kind == KindPhaseEnd {
		fmt.Fprintf(b.w, " nodes=%d→%d blocks=%d→%d dur=%s",
			e.NodesBefore, e.NodesAfter, e.BlocksBefore, e.BlocksAfter,
			time.Duration(e.DurationNS))
	}
	fmt.Fprintln(b.w)
}

// FuncBackend adapts a function to the Backend interface.
type FuncBackend func(e *Event)

// Write implements Backend.
func (f FuncBackend) Write(e *Event) { f(e) }
