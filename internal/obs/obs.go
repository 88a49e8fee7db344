// Package obs is the unified observability layer for the compiler and VM:
// one stream of typed events, kept in part by an always-on ring and fanned
// out to the backends of a tracing sink — JSONL and human-readable text
// writers, the escape-attribution table, and a metrics registry that folds
// the stream into per-kind counters and per-phase timers (published via
// expvar).
//
// Design constraints:
//
//   - A nil *Sink is a valid, fully inert receiver. A sink built by NewRing
//     keeps the ring only: it does not trace, never calls a backend, and
//     every helper of a kind the ring does not keep returns at once.
//     Neither path allocates or converts to an interface. This is
//     load-bearing: the sink is threaded through the hot compile path
//     (build → opt → PEA → VM) and the no-alloc guarantee is enforced by
//     BenchmarkCompileNilSink.
//
//   - Events are strongly typed by Kind. Each pipeline layer has its own
//     family: phase timing (phase_start/phase_end), inlining decisions,
//     PEA decisions (virtualize, materialize, merge_materialize,
//     lock_elide, pea_round, pea_fixpoint, pea_bailout), EA baseline
//     verdicts, VM lifecycle (compile, deopt, rematerialize, invalidate,
//     recompile, OSR) and broker lifecycle (submit, start, install, fail,
//     panic).
//
//   - The ring (package obs/flight) keeps the JIT's runtime occurrences —
//     the broker lifecycle, OSR requests and entries, deopts,
//     materializations, rematerializations and summary-kept arguments — as
//     pointer-free records, whether or not the sink traces: it is the
//     JFR-style black box a crash dump or /debug/pea/flight reads. Each of
//     those occurrences is one helper call, which writes one record and,
//     when the sink traces, the event for it. The ring and the trace draw
//     from one sequence and read one clock, so a ring dump is a sub-stream
//     of the trace: every record dumps as the Event the trace carries for
//     it, restricted to the fields the ring keeps.
//
//   - Every consumer of the trace is a Backend attached one way (NewSink or
//     AddBackend) and sees every event once. Metrics are a fold of the
//     stream, not a second record of it: a counter is the number of events
//     of its kind, so the two cannot disagree.
//
//   - Time is observed through a settable clock so golden-file tests can
//     pin timestamps and durations to deterministic values.
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"pea/internal/bc"
	"pea/internal/obs/flight"
)

// Kind names the type of a structured event. It encodes as a stable string
// in the JSONL output; tests golden-match them.
type Kind uint8

// Event kinds, grouped by pipeline layer. The zero Kind is no kind at all.
const (
	// Phase timing (front end and optimizer).
	KindPhaseStart Kind = iota + 1
	KindPhaseEnd

	// Inlining decisions.
	KindInline

	// PEA decisions (paper §4–§5).
	KindVirtualize
	KindMaterialize
	KindMergeMaterialize
	KindLockElide
	KindPEARound
	KindPEAFixpoint
	KindPEABailout
	KindPEAState

	// EA baseline verdicts (whole-method escape analysis).
	KindEAVerdict

	// Inter-procedural escape summaries: a summary set becomes available
	// (computed, or found in the broker's memory tier), and a PEA decision
	// kept a virtual object virtual across a non-inlined call because every
	// possible callee's summary proves the argument position unobserved.
	KindSummary
	KindSummaryKeptVirtual

	// VM lifecycle.
	KindVMCompile
	KindVMDeopt
	KindVMRematerialize
	KindVMInvalidate
	KindVMRecompile
	// On-stack replacement: a hot loop header requests compilation of an
	// alternate entry point, and an interpreter frame is transferred into
	// the installed OSR code mid-loop.
	KindVMOSRRequest
	KindVMOSREnter

	// Compile-broker lifecycle: a hot method enters the queue, a unit
	// leaves it for the pipeline (or a cache tier), compiled code is
	// installed (freshly compiled or replayed from a cache tier), the unit
	// fails to produce code, a duplicate submission is coalesced, or a
	// submission is rejected because the bounded queue is full.
	KindBrokerSubmit
	KindCompileStart
	KindBrokerInstall
	KindCompileFail
	KindBrokerDedup
	KindBrokerReject
	// Fault containment: a compile pipeline run panicked and the broker
	// converted the panic into a structured per-method failure (the VM
	// keeps running; the method degrades to the interpreter).
	KindBrokerPanic

	// Compile retry/backoff: a transiently failed or queue-rejected
	// submission was re-armed — the method becomes submit-eligible again
	// once its hotness counter passes the backed-off threshold.
	KindVMRearm
	// Crash forensics: a minimized reproducer for a compiler panic was
	// written to the crash directory (HotSpot replay-file analogue).
	KindVMCrashRepro

	// IR snapshot hook (used by irdump): the event carries the phase name
	// whose output the snapshot represents; the rendered IR is delivered
	// to registered SnapshotFunc callbacks, not serialized into the event.
	KindIRSnapshot

	// Checker violation: the leveled IR sanitizer found a broken
	// invariant after a phase. Reason carries the violation, Detail the
	// phase (and, when available, a before/after IR diff summary).
	KindCheckViolation
)

var kindNames = [...]string{
	KindPhaseStart:         "phase_start",
	KindPhaseEnd:           "phase_end",
	KindInline:             "inline",
	KindVirtualize:         "virtualize",
	KindMaterialize:        "materialize",
	KindMergeMaterialize:   "merge_materialize",
	KindLockElide:          "lock_elide",
	KindPEARound:           "pea_round",
	KindPEAFixpoint:        "pea_fixpoint",
	KindPEABailout:         "pea_bailout",
	KindPEAState:           "pea_state",
	KindEAVerdict:          "ea_verdict",
	KindSummary:            "summary",
	KindSummaryKeptVirtual: "summary_kept_virtual",
	KindVMCompile:          "vm_compile",
	KindVMDeopt:            "vm_deopt",
	KindVMRematerialize:    "vm_rematerialize",
	KindVMInvalidate:       "vm_invalidate",
	KindVMRecompile:        "vm_recompile",
	KindVMOSRRequest:       "vm_osr_request",
	KindVMOSREnter:         "vm_osr_enter",
	KindBrokerSubmit:       "broker_submit",
	KindCompileStart:       "compile_start",
	KindBrokerInstall:      "broker_install",
	KindCompileFail:        "compile_fail",
	KindBrokerDedup:        "broker_dedup",
	KindBrokerReject:       "broker_reject",
	KindBrokerPanic:        "broker_panic",
	KindVMRearm:            "vm_rearm",
	KindVMCrashRepro:       "vm_crash_repro",
	KindIRSnapshot:         "ir_snapshot",
	KindCheckViolation:     "check_violation",
}

// String returns the kind's stable name ("" for the zero Kind).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// MarshalText encodes the kind as its name.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText decodes a kind name.
func (k *Kind) UnmarshalText(b []byte) error {
	for i, name := range kindNames {
		if name != "" && name == string(b) {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", b)
}

// sited reports whether the ring keeps kind k's allocation site: the
// record's A is then the site method's ID, BCI the allocation's.
func (k Kind) sited() bool {
	switch k {
	case KindMaterialize, KindMergeMaterialize, KindSummaryKeptVirtual, KindVMRematerialize:
		return true
	}
	return false
}

// Event is one structured observability record. Fields are omitted from the
// JSON encoding when empty so each line stays readable and schema-stable.
type Event struct {
	// Seq is the event's number in its sink's one sequence, which the ring
	// and the trace share.
	Seq int64 `json:"seq"`
	// TNS is the event's wall-clock time in nanoseconds since the Unix epoch
	// (deterministic under a test clock).
	TNS int64 `json:"t_ns"`
	// Kind discriminates the event family.
	Kind Kind `json:"kind"`
	// Prog tags the program of a sink view (Sink.Program); 0 for the root.
	Prog uint32 `json:"prog,omitempty"`
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
	// DurationNS is the wall time of the phase, on phase_end events, and of
	// the compile, on broker_install and compile_fail events.
	DurationNS int64 `json:"duration_ns,omitempty"`
}

// fill sets the fields of e that a ring record of e.Kind keeps: method and
// site name the record's method and (for sited kinds) allocation-site
// method, bci, a, b and reason are its scalars. A tracing helper and a ring
// dump both build their event through it, so the two agree on every field
// the ring keeps.
func (e *Event) fill(method, site string, bci int32, a, b int64, reason string) {
	e.Method = method
	switch e.Kind {
	case KindBrokerSubmit:
		e.Phase, e.Round, e.NodesAfter = "broker", int(a), int(b)
	case KindCompileStart:
		e.Phase, e.Round = "broker", int(a)
	case KindBrokerInstall:
		e.Phase, e.Detail, e.DurationNS = "broker", reason, a
	case KindCompileFail:
		e.Phase, e.Reason, e.DurationNS = "broker", reason, a
	case KindBrokerPanic:
		e.Phase, e.Reason = "broker", reason
	case KindVMOSRRequest:
		e.Phase, e.Node, e.Round = "vm", fmt.Sprintf("bci%d", bci), int(a)
	case KindVMOSREnter:
		e.Phase, e.Node = "vm", fmt.Sprintf("bci%d", bci)
	case KindVMDeopt:
		e.Phase, e.Node, e.Reason = "vm", fmt.Sprintf("v%d", a), reason
	case KindVMRematerialize:
		e.Phase, e.Obj = "vm", fmt.Sprintf("vobj%d", b)
	case KindMaterialize, KindMergeMaterialize:
		e.Phase, e.Obj, e.Reason = "pea", fmt.Sprintf("o%d", b), reason
	case KindSummaryKeptVirtual:
		e.Phase, e.Obj, e.Detail = "pea", fmt.Sprintf("o%d", b), reason
	}
	if e.Kind.sited() {
		e.Site = siteName(site, bci)
	}
}

// siteName is the allocation-site identity ("Class.method@bci") of an
// allocation at bci of method; a bci < 0 leaves the method name alone.
func siteName(method string, bci int32) string {
	if bci < 0 {
		return method
	}
	return fmt.Sprintf("%s@%d", method, bci)
}

// siteOf names the allocation at bci of site (nil: m).
func siteOf(m, site *bc.Method, bci int) string {
	if site == nil {
		site = m
	}
	return siteName(qualifiedName(site), int32(bci))
}

// Backend consumes events from a Sink. Implementations must be safe for the
// Sink's locking discipline: the sink serializes Write calls.
type Backend interface {
	Write(e *Event)
}

// SnapshotFunc receives per-phase IR snapshots (see Sink.Snapshot). The
// renderer is only invoked if at least one snapshot func is registered.
type SnapshotFunc func(phase, method string, render func() string)

// Sink is one program's view of an event stream: the ring, and — for a sink
// that traces — the backends and snapshot consumers the events fan out to.
// A nil *Sink is valid and inert.
type Sink struct {
	*stream
	ring *flight.Recorder
}

// stream is the state every view of one sink shares.
type stream struct {
	// traces is fixed at construction, so the ring-only path reads it
	// without a lock.
	traces bool
	// now is the clock; set it (SetClock) before the sink is shared.
	now func() time.Time

	mu       sync.Mutex // serializes traced events, guards the fields below
	backends []Backend
	snaps    []SnapshotFunc
}

// NewSink creates a tracing sink writing to the given backends.
func NewSink(backends ...Backend) *Sink {
	return &Sink{stream: &stream{traces: true, now: time.Now, backends: backends},
		ring: flight.New()}
}

// NewRing creates a sink that keeps the ring and nothing else: it does not
// trace, so backends and snapshot consumers attached to it are never
// consulted. It is the sink a VM makes when given none.
func NewRing() *Sink {
	return &Sink{stream: &stream{now: time.Now}, ring: flight.New()}
}

// Traces reports whether s builds events for its backends (false for nil).
func (s *Sink) Traces() bool { return s != nil && s.traces }

// Program returns a view of s for one more program sharing its ring (and,
// if s traces, its backends): the view's records and events carry a fresh
// program tag, and ring dumps resolve their method IDs through names
// (indexed by dense method ID; retained, not copied). A long-lived owner
// registers each program once and calls Release when it forgets the
// program, so the name tables stay bounded by its working set.
func (s *Sink) Program(names []string) *Sink {
	if s == nil {
		return nil
	}
	return &Sink{stream: s.stream, ring: s.ring.Program(names)}
}

// Release drops the view's method-name table. Records already in the ring
// still dump, with their program tag but without a method name.
func (s *Sink) Release() {
	if s != nil {
		s.ring.Release()
	}
}

// HasMethodNames reports whether the view's program has a name table.
func (s *Sink) HasMethodNames() bool { return s != nil && s.ring.HasMethodNames() }

// SetMethodNames installs the view's dense-method-ID → qualified-name
// table. A VM given a sink without one calls it at startup.
func (s *Sink) SetMethodNames(names []string) {
	if s != nil {
		s.ring.SetMethodNames(names)
	}
}

// SetClock replaces the sink's time source (for deterministic tests). Call
// it before the sink is in use: the ring-only path reads the clock without
// locking.
func (s *Sink) SetClock(now func() time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.now = now
	s.mu.Unlock()
}

// SetMetrics attaches a metrics registry, as AddBackend(m) does; a nil m
// attaches nothing.
func (s *Sink) SetMetrics(m *Metrics) {
	if m != nil {
		s.AddBackend(m)
	}
}

// AddBackend appends a backend to the fan-out list. Backends stay attached
// for the sink's life; one that wants only part of the stream filters in
// its Write.
func (s *Sink) AddBackend(b Backend) {
	if s == nil || b == nil {
		return
	}
	s.mu.Lock()
	s.backends = append(s.backends, b)
	s.mu.Unlock()
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
	if !s.Traces() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.snaps) > 0
}

// Snapshot delivers a lazily rendered IR snapshot for the given phase to
// all registered snapshot consumers and records an ir_snapshot event.
func (s *Sink) Snapshot(phase, method string, render func() string) {
	if !s.WantSnapshots() {
		return
	}
	s.mu.Lock()
	snaps := s.snaps
	s.mu.Unlock()
	s.trace(Event{Kind: KindIRSnapshot, Phase: phase, Method: method})
	for _, f := range snaps {
		f(phase, method, render)
	}
}

// emit stamps e with the next sequence number and the clock and writes it
// to the backends; rec, when non-nil, is the ring record of the same
// occurrence and is stamped and kept alike. The caller must not retain e.
func (s *Sink) emit(e *Event, rec *flight.Record) {
	s.mu.Lock()
	seq, t := s.ring.Next(), s.now().UnixNano()
	e.Seq, e.TNS = int64(seq), t
	if rec != nil {
		rec.Seq, rec.TNS = seq, t
		s.ring.Put(*rec)
	}
	for _, b := range s.backends {
		b.Write(e)
	}
	s.mu.Unlock()
}

// occur records one occurrence of a kind the ring keeps: m is the method it
// concerns, site (for sited kinds; nil means m) the method whose bytecode
// holds the allocation, bci, a, b and reason the scalars fill reads back. A
// sink that does not trace stops there, without allocating once the reason
// is interned. A tracing sink returns the record unstamped and the event
// for it, for the caller to complete with the fields only the trace keeps
// and hand to emit.
func (s *Sink) occur(k Kind, m, site *bc.Method, bci int, a, b int64, reason string) (flight.Record, *Event) {
	if s == nil {
		return flight.Record{}, nil
	}
	if k.sited() {
		if site == nil {
			site = m
		}
		a = int64(methodID(site))
	}
	rec := flight.Record{Kind: uint8(k), Reason: s.ring.Reason(reason),
		Method: methodID(m), BCI: int32(bci), A: a, B: b}
	if !s.traces {
		rec.Seq, rec.TNS = s.ring.Next(), s.now().UnixNano()
		s.ring.Put(rec)
		return rec, nil
	}
	e := &Event{Kind: k, Prog: s.ring.Tag()}
	e.fill(qualifiedName(m), qualifiedName(site), int32(bci), a, b, reason)
	return rec, e
}

func methodID(m *bc.Method) int32 {
	if m == nil {
		return -1
	}
	return int32(m.ID)
}

func qualifiedName(m *bc.Method) string {
	if m == nil {
		return ""
	}
	return m.QualifiedName()
}

// WriteRing dumps the ring — the records of every program sharing it,
// whichever view it is called on — as JSON lines, oldest first. Each line
// is the Event of one record, with its method resolved through its
// program's name table and its reason code to the string:
//
//	{"seq":12,"t_ns":1760000000051034,"kind":"broker_install","phase":"broker","method":"Main.getValue","detail":"compiled","duration_ns":48211}
//
// Records made through a Program view additionally carry "prog":<tag>, which
// tells the tenants of a shared ring apart even when their methods share a
// name.
func (s *Sink) WriteRing(w io.Writer) error {
	if s == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	r := s.ring
	for _, rec := range r.Snapshot() {
		e := Event{Seq: int64(rec.Seq), TNS: rec.TNS, Kind: Kind(rec.Kind), Prog: rec.Prog}
		site := ""
		if e.Kind.sited() {
			site = r.MethodName(rec.Prog, int32(rec.A))
		}
		e.fill(r.MethodName(rec.Prog, rec.Method), site, rec.BCI, rec.A, rec.B, r.ReasonString(rec.Reason))
		if err := enc.Encode(&e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteRingFile dumps the ring to path (0644, truncating).
func (s *Sink) WriteRingFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	werr := s.WriteRing(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// --- Trace-only helpers -------------------------------------------------
//
// Each helper hands its event to trace, which returns at once on a sink
// that does not trace: the disabled path is allocation-free (the event
// travels by value and reaches the heap only on the enabled path). A helper
// or caller whose arguments cost something to build checks Traces first.

// trace stamps e and writes it to the backends if the sink traces. The copy
// keeps the heap allocation on the traced path: e itself never escapes.
func (s *Sink) trace(e Event) {
	if s.Traces() {
		ev := e
		s.emit(&ev, nil)
	}
}

// PhaseStart records the beginning of a compiler phase.
func (s *Sink) PhaseStart(phase, method string, nodes, blocks int) {
	s.trace(Event{Kind: KindPhaseStart, Phase: phase, Method: method,
		NodesBefore: nodes, BlocksBefore: blocks})
}

// PhaseEnd records the end of a compiler phase with size deltas and wall
// time.
func (s *Sink) PhaseEnd(phase, method string, nodesBefore, blocksBefore, nodesAfter, blocksAfter int, d time.Duration) {
	s.trace(Event{Kind: KindPhaseEnd, Phase: phase, Method: method,
		NodesBefore: nodesBefore, BlocksBefore: blocksBefore,
		NodesAfter: nodesAfter, BlocksAfter: blocksAfter,
		DurationNS: d.Nanoseconds()})
}

// CheckViolation records an IR sanitizer violation found after a phase.
// The reason is the checker's error; detail typically names what the
// forensic dump diff revealed (or is empty).
func (s *Sink) CheckViolation(phase, method, reason, detail string) {
	s.trace(Event{Kind: KindCheckViolation, Phase: phase, Method: method,
		Reason: reason, Detail: detail})
}

// SummaryReady records that an inter-procedural summary set is available:
// methods summarized, ref parameters proven no-escape, predicate edges,
// and where the set came from ("computed", or "cache" for the broker's
// memory tier).
func (s *Sink) SummaryReady(methods, noEscape, preds int, source string) {
	if s.Traces() {
		s.trace(Event{Kind: KindSummary, Phase: "summary", Reason: source,
			Detail: fmt.Sprintf("methods=%d no_escape_params=%d preds=%d", methods, noEscape, preds)})
	}
}

// Inline records an inlining decision: callee inlined into method at node.
func (s *Sink) Inline(method, callee, node string) {
	s.trace(Event{Kind: KindInline, Phase: "inline", Method: method, Detail: callee, Node: node})
}

// Virtualize records PEA scalar-replacing object obj of class in method m
// at IR node node, attributed for escape attribution to the allocation at
// bci of site (nil: m).
func (s *Sink) Virtualize(m *bc.Method, obj int, class string, node int, site *bc.Method, bci int) {
	if s.Traces() {
		s.trace(Event{Kind: KindVirtualize, Phase: "pea", Method: qualifiedName(m),
			Obj: fmt.Sprintf("o%d", obj), Detail: class, Node: fmt.Sprintf("v%d", node),
			Site: siteOf(m, site, bci)})
	}
}

// LockElide records monitor operation op on virtual object obj of method m
// elided at IR node node, attributed to the allocation at bci of site (nil:
// m).
func (s *Sink) LockElide(m *bc.Method, obj, node int, op string, site *bc.Method, bci int) {
	if s.Traces() {
		s.trace(Event{Kind: KindLockElide, Phase: "pea", Method: qualifiedName(m),
			Obj: fmt.Sprintf("o%d", obj), Node: fmt.Sprintf("v%d", node), Detail: op,
			Site: siteOf(m, site, bci)})
	}
}

// PEARound records the start of a PEA fixpoint iteration round.
func (s *Sink) PEARound(method string, round int) {
	s.trace(Event{Kind: KindPEARound, Phase: "pea", Method: method, Round: round})
}

// PEAFixpoint records loop-state convergence after the given round count.
func (s *Sink) PEAFixpoint(method string, rounds int) {
	s.trace(Event{Kind: KindPEAFixpoint, Phase: "pea", Method: method, Round: rounds})
}

// PEABailout records PEA giving up on a method, with the reason.
func (s *Sink) PEABailout(method, reason string) {
	s.trace(Event{Kind: KindPEABailout, Phase: "pea", Method: method, Reason: reason})
}

// PEAState records a formatted PEA abstract-state line (block entry change
// during the fixpoint). Detail carries the rendered state.
func (s *Sink) PEAState(method, block, state string) {
	s.trace(Event{Kind: KindPEAState, Phase: "pea", Method: method, Block: block, Detail: state})
}

// EAVerdict records the whole-method escape-analysis baseline verdict for
// the allocation at IR node node of method m: verdict is "captured" or
// "escapes", reason the cause; the allocation is at bci of site (nil: m).
func (s *Sink) EAVerdict(m *bc.Method, node int, verdict, reason string, site *bc.Method, bci int) {
	if s.Traces() {
		s.trace(Event{Kind: KindEAVerdict, Phase: "ea", Method: qualifiedName(m),
			Node: fmt.Sprintf("v%d", node), Detail: verdict, Reason: reason, Site: siteOf(m, site, bci)})
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
	s.trace(Event{Kind: KindVMCompile, Phase: "vm", Method: method, Round: invocations, Reason: trigger})
}

// VMInvalidate records invalidation of a compiled method.
func (s *Sink) VMInvalidate(method, reason string) {
	s.trace(Event{Kind: KindVMInvalidate, Phase: "vm", Method: method, Reason: reason})
}

// VMRecompile records a method being compiled again after invalidation.
func (s *Sink) VMRecompile(method string, generation int) {
	s.trace(Event{Kind: KindVMRecompile, Phase: "vm", Method: method, Round: generation})
}

// BrokerDedup records a submission of m coalesced with an in-flight compile
// of the same unit.
func (s *Sink) BrokerDedup(m *bc.Method) {
	if s.Traces() {
		s.trace(Event{Kind: KindBrokerDedup, Phase: "broker", Method: m.QualifiedName()})
	}
}

// BrokerReject records a submission of m dropped because the bounded queue
// was full.
func (s *Sink) BrokerReject(m *bc.Method, reason string) {
	if s.Traces() {
		s.trace(Event{Kind: KindBrokerReject, Phase: "broker", Method: m.QualifiedName(), Reason: reason})
	}
}

// VMRearm records a transiently failed (or queue-rejected) compilation
// being re-armed with backoff: attempt is the retry ordinal, nextHotness
// the hotness-counter value at which the method becomes submit-eligible
// again.
func (s *Sink) VMRearm(method, reason string, attempt int, nextHotness int64) {
	s.trace(Event{Kind: KindVMRearm, Phase: "vm", Method: method, Reason: reason,
		Round: attempt, NodesAfter: int(nextHotness)})
}

// VMCrashRepro records a minimized compiler-crash reproducer being written
// to the crash directory; detail is the file path.
func (s *Sink) VMCrashRepro(method, path string) {
	s.trace(Event{Kind: KindVMCrashRepro, Phase: "vm", Method: method, Detail: path})
}

// --- Ring-kept helpers --------------------------------------------------
//
// Each occurrence the ring keeps is one call of one of these helpers, with
// typed arguments: it writes one ring record whether or not the sink
// traces, and builds the string-bearing event only when it does.

// BrokerSubmit records hot method m entering the compile queue: hotness is
// the count that triggered tier-up, depth the queue depth after the
// submission (0 on a synchronous broker).
func (s *Sink) BrokerSubmit(m *bc.Method, hotness int64, depth int) {
	if rec, e := s.occur(KindBrokerSubmit, m, nil, -1, hotness, int64(depth), ""); e != nil {
		s.emit(e, &rec)
	}
}

// CompileStart records a unit of m leaving the queue for the pipeline or a
// cache tier; hotness is the count it was submitted with.
func (s *Sink) CompileStart(m *bc.Method, hotness int64) {
	if rec, e := s.occur(KindCompileStart, m, nil, -1, hotness, 0, ""); e != nil {
		s.emit(e, &rec)
	}
}

// BrokerInstall records compiled code being published for m after d of
// broker time. source is "compiled" for a fresh pipeline run, "cache" for an
// in-memory code-cache replay, or "disk" for an artifact reloaded and
// re-verified from the persistent store.
func (s *Sink) BrokerInstall(m *bc.Method, source string, d time.Duration) {
	if rec, e := s.occur(KindBrokerInstall, m, nil, -1, d.Nanoseconds(), 0, source); e != nil {
		s.emit(e, &rec)
	}
}

// CompileFail records a unit of m that produced no installable code after
// d of broker time; reason classifies the failure ("error", "transient", or
// a budget bailout's "<kind>@<phase>").
func (s *Sink) CompileFail(m *bc.Method, reason string, d time.Duration) {
	if rec, e := s.occur(KindCompileFail, m, nil, -1, d.Nanoseconds(), 0, reason); e != nil {
		s.emit(e, &rec)
	}
}

// BrokerPanic records a compile pipeline panic contained by the broker:
// the panic value is carried in reason; the method degrades to the
// interpreter instead of the process dying.
func (s *Sink) BrokerPanic(m *bc.Method, reason string) {
	if rec, e := s.occur(KindBrokerPanic, m, nil, -1, 0, 0, reason); e != nil {
		s.emit(e, &rec)
	}
}

// VMOSRRequest records m's hot loop header bci requesting an
// on-stack-replacement compile after count back edges.
func (s *Sink) VMOSRRequest(m *bc.Method, bci int, count int64) {
	if rec, e := s.occur(KindVMOSRRequest, m, nil, bci, count, 0, ""); e != nil {
		s.emit(e, &rec)
	}
}

// VMOSREnter records an interpreter frame of m transferring into compiled
// OSR code at the loop header bci.
func (s *Sink) VMOSREnter(m *bc.Method, bci int) {
	if rec, e := s.occur(KindVMOSREnter, m, nil, bci, 0, 0, ""); e != nil {
		s.emit(e, &rec)
	}
}

// VMDeopt records compiled code of m deoptimizing at IR node id node, for
// reason.
func (s *Sink) VMDeopt(m *bc.Method, node int, reason string) {
	if rec, e := s.occur(KindVMDeopt, m, nil, -1, int64(node), 0, reason); e != nil {
		s.emit(e, &rec)
	}
}

// VMRematerialize records virtual object vobj rematerialized while m
// deoptimized, attributed to its allocation at bci of site (nil: m); class
// names the allocated type and is kept by the trace only.
func (s *Sink) VMRematerialize(m *bc.Method, vobj int64, site *bc.Method, bci int, class string) {
	if rec, e := s.occur(KindVMRematerialize, m, site, bci, 0, vobj, ""); e != nil {
		e.Detail = class
		s.emit(e, &rec)
	}
}

// Materialize records a PEA materialization of object obj in method m,
// before IR node node in block block, with its cause, attributed to the
// allocation at bci of site (nil: m). node < 0 marks an edge
// materialization at the end of block, which is always merge-induced and
// reported as merge_materialize (paper §4.3, Figure 6).
func (s *Sink) Materialize(m *bc.Method, obj int, site *bc.Method, bci, node, block int, reason string) {
	k := KindMaterialize
	if node < 0 {
		k = KindMergeMaterialize
	}
	rec, e := s.occur(k, m, site, bci, 0, int64(obj), reason)
	if e == nil {
		return
	}
	if node >= 0 {
		e.Node = fmt.Sprintf("v%d", node)
	}
	e.Block = fmt.Sprintf("b%d", block)
	s.emit(e, &rec)
}

// SummaryKeptVirtual records that PEA kept object obj of method m virtual
// across the non-inlined call at IR node call in block block, because the
// summary of callee proves the argument unobserved; attributed to the
// allocation at bci of site (nil: m).
func (s *Sink) SummaryKeptVirtual(m *bc.Method, obj int, site *bc.Method, bci, call, block int, callee string) {
	if rec, e := s.occur(KindSummaryKeptVirtual, m, site, bci, 0, int64(obj), callee); e != nil {
		e.Node, e.Block = fmt.Sprintf("v%d", call), fmt.Sprintf("b%d", block)
		s.emit(e, &rec)
	}
}

// --- PhaseSpan ----------------------------------------------------------

// PhaseSpan brackets a phase: StartPhase emits phase_start and captures the
// clock; End emits phase_end with deltas. The zero PhaseSpan (from a sink
// that does not trace) is inert.
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
	if !s.Traces() {
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
	if e.Phase != "" && e.Phase != e.Kind.String() {
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
