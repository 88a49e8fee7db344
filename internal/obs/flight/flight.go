// Package flight is the VM's always-on flight recorder: a fixed-size,
// sharded ring buffer of compact typed events covering the JIT's runtime
// behavior — compile start/finish, queue depth, OSR requests and entries,
// deoptimizations with reasons, materializations attributed to their
// allocation site, contained compiler panics, and budget bailouts. It is
// the JFR-style "black box" a production VM keeps running at all times:
// when something goes wrong, the last few thousand events are already in
// memory, ready to dump next to the crash artifact.
//
// Design constraints:
//
//   - Recording must be allocation-free and cheap enough to stay on with
//     production workloads (<2% of peabench hot paths; in practice the
//     recorder only fires at compile/deopt/OSR boundaries, never per
//     interpreted or compiled step). Record takes only scalars, the slot
//     structs contain no pointers, and strings cross the boundary as
//     interned codes obtained by the caller on its slow path.
//
//   - A nil *Recorder is valid and inert, mirroring the obs.Sink contract,
//     so the recorder can be threaded unconditionally.
//
//   - One ring serves a whole process. Method IDs are dense per program, so
//     a server running many programs hands each one a view of the shared
//     ring (Recorder.Program) that stamps its records with a program tag;
//     the dump resolves a record's method through its program's name table.
//
//   - Writers must be race-free under `go test -race` with many broker
//     workers recording concurrently. Slots are guarded by per-shard
//     mutexes; a global atomic sequence counter distributes consecutive
//     records round-robin over the shards, so two concurrent recorders
//     collide on a lock only 1/shardCount of the time, and the dump can
//     re-merge a totally ordered stream by sequence number.
package flight

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Kind discriminates the typed flight events.
type Kind uint8

const (
	// KindNone is the zero Kind of an unwritten slot.
	KindNone Kind = iota
	// KindCompileStart: a compilation unit leaves the queue and enters the
	// pipeline. A = hotness at submission.
	KindCompileStart
	// KindCompileFinish: the unit resolved. A = wall time in nanoseconds,
	// B = 0 success / 1 failure; Reason classifies the outcome ("cache",
	// "transient", "error", empty for a fresh successful compile).
	KindCompileFinish
	// KindQueueDepth: the broker queue depth changed on a submission.
	// A = depth after the submission, B = high-water mark.
	KindQueueDepth
	// KindOSRRequest: a hot loop header asked for an on-stack-replacement
	// compile. BCI is the loop header, A the back-edge count.
	KindOSRRequest
	// KindOSREnter: an interpreter frame transferred into OSR code at BCI.
	KindOSREnter
	// KindDeopt: compiled code deoptimized back into the interpreter.
	// BCI is the frame-state resume point; Reason carries the deopt reason.
	KindDeopt
	// KindMaterialize: an allocation was materialized — at compile time by
	// PEA (Reason = merge-mixed, StoreStatic, Invoke, …) or at deopt time
	// by the rematerialization runtime (Reason = deopt-remat). Method/BCI
	// identify the original allocation site; A is the analyzer's object id
	// (or the virtual-object index for rematerializations).
	KindMaterialize
	// KindPanic: a compile pipeline run panicked and the broker contained
	// it. Reason carries the panic value.
	KindPanic
	// KindBudgetBailout: a compile blew its deadline/IR budget and was
	// re-armed. Reason summarizes the structured budget error.
	KindBudgetBailout
	// KindSummaryKept: PEA kept a virtual object virtual across a
	// non-inlined call because the callee's inter-procedural summary
	// proved the argument position unobserved. Method/BCI identify the
	// allocation site; A is the analyzer's object id; Reason names the
	// callee.
	KindSummaryKept
)

// String names the kind as it appears in dumps (stable; peastat and tests
// match on these).
func (k Kind) String() string {
	switch k {
	case KindCompileStart:
		return "compile_start"
	case KindCompileFinish:
		return "compile_finish"
	case KindQueueDepth:
		return "queue_depth"
	case KindOSRRequest:
		return "osr_request"
	case KindOSREnter:
		return "osr_enter"
	case KindDeopt:
		return "deopt"
	case KindMaterialize:
		return "materialize"
	case KindPanic:
		return "panic"
	case KindBudgetBailout:
		return "budget_bailout"
	case KindSummaryKept:
		return "summary_kept"
	default:
		return "unknown"
	}
}

// Record is one fixed-size flight event. It carries no pointers: recording
// copies scalars into a preallocated slot, and dumps copy slots wholesale.
// Method is a dense bc.Method ID (-1 unknown) of the program tagged Prog (0
// for the root view), resolved to a name at dump time; Reason is an interned
// string code (see Recorder.Reason). Prog sits in what used to be padding:
// the record stays 48 bytes.
type Record struct {
	Seq    uint64
	TNS    int64 // nanoseconds since the recorder was created
	Kind   Kind
	Reason uint16
	Method int32
	BCI    int32
	Prog   uint32
	A, B   int64
}

// shardCount is the number of independently locked rings (power of two).
const shardCount = 8

// DefaultCapacity is the total slot count New gives a VM's always-on
// recorder: enough for the recent compile/deopt history of a large run at
// ~48 bytes per slot (~200 KiB), small enough to never matter.
const DefaultCapacity = 4096

// maxReasons bounds the intern table; code 1 ("<other>") absorbs overflow
// so a pathological stream of distinct reason strings cannot grow memory.
const maxReasons = 1024

type shard struct {
	mu   sync.Mutex
	buf  []Record
	next uint64 // total records ever written to this shard
}

// Recorder is one program's view of a sharded ring buffer: New creates the
// ring with its root view, Program derives further views that share the
// ring and differ only in the program tag they stamp on records. The zero
// value is not usable; a nil *Recorder is inert.
type Recorder struct {
	*ring
	prog uint32
}

// ring is the state every view of one recorder shares.
type ring struct {
	start  time.Time
	seq    atomic.Uint64
	shards [shardCount]shard

	mu       sync.RWMutex
	names    map[uint32][]string // program tag → dense method ID → qualified name
	lastProg uint32              // highest program tag handed out
	reasons  []string            // reason code → string; [0]="", [1]="<other>"
	codeOf   map[string]uint16   // reverse intern map
}

// New creates a recorder with the given total slot capacity (<=0 selects
// DefaultCapacity). Capacity is split evenly across the shards.
func New(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	per := capacity / shardCount
	if per < 1 {
		per = 1
	}
	r := &ring{
		start:   time.Now(),
		names:   make(map[uint32][]string),
		reasons: []string{"", "<other>"},
		codeOf:  make(map[string]uint16),
	}
	for i := range r.shards {
		r.shards[i].buf = make([]Record, per)
	}
	return &Recorder{ring: r}
}

// Program returns a view of the same ring for one more program: records
// made through it carry a fresh program tag, and dumps resolve their method
// IDs through names (indexed by dense method ID; the slice is retained, not
// copied). A long-lived owner registers each program once and calls Release
// when it forgets the program, so the tables stay bounded by the owner's
// working set.
func (r *Recorder) Program(names []string) *Recorder {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.lastProg++
	v := &Recorder{ring: r.ring, prog: r.lastProg}
	r.names[v.prog] = names
	r.mu.Unlock()
	return v
}

// Release drops the view's method-name table. Records already in the ring
// (and any made later through the view) still dump, with their program tag
// but without a method name.
func (r *Recorder) Release() {
	if r == nil {
		return
	}
	r.mu.Lock()
	delete(r.names, r.prog)
	r.mu.Unlock()
}

// Record appends one event. It is the always-on fast path: safe for
// concurrent use, zero allocations, no interface conversions, a single
// uncontended-in-expectation mutex. method is a dense bc.Method ID (-1
// unknown), bci a bytecode index (-1 when not applicable), reason an
// interned code from Reason (0 for none).
func (r *Recorder) Record(k Kind, method, bci int32, a, b int64, reason uint16) {
	if r == nil {
		return
	}
	seq := r.seq.Add(1)
	t := time.Since(r.start).Nanoseconds()
	sh := &r.shards[seq&(shardCount-1)]
	sh.mu.Lock()
	slot := &sh.buf[sh.next%uint64(len(sh.buf))]
	slot.Seq = seq
	slot.TNS = t
	slot.Kind = k
	slot.Reason = reason
	slot.Method = method
	slot.BCI = bci
	slot.Prog = r.prog
	slot.A = a
	slot.B = b
	sh.next++
	sh.mu.Unlock()
}

// Reason interns s and returns its code. The table is bounded: once
// maxReasons distinct strings have been seen, further new strings map to
// the shared "<other>" code. Callers on recording paths should intern once
// and cache the code when the string is static; dynamic strings (deopt
// reasons, panic values) pay one read-locked map lookup after the first
// occurrence.
func (r *Recorder) Reason(s string) uint16 {
	if r == nil || s == "" {
		return 0
	}
	r.mu.RLock()
	c, ok := r.codeOf[s]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.codeOf[s]; ok {
		return c
	}
	if len(r.reasons) >= maxReasons {
		return 1 // "<other>"
	}
	c = uint16(len(r.reasons))
	r.reasons = append(r.reasons, s)
	r.codeOf[s] = c
	return c
}

// SetMethodNames installs the dense-method-ID → qualified-name table of the
// view's own program. A VM given a recorder without one calls it at startup.
func (r *Recorder) SetMethodNames(names []string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.names[r.prog] = append([]string(nil), names...)
	r.mu.Unlock()
}

// HasMethodNames reports whether the view's program has a name table.
func (r *Recorder) HasMethodNames() bool {
	if r == nil {
		return false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.names[r.prog] != nil
}

// MethodName resolves a dense method ID of the view's own program ("" if
// unknown).
func (r *Recorder) MethodName(id int32) string {
	if r == nil {
		return ""
	}
	return r.methodName(r.prog, id)
}

func (r *Recorder) methodName(prog uint32, id int32) string {
	if id < 0 {
		return ""
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if names := r.names[prog]; int(id) < len(names) {
		return names[id]
	}
	return ""
}

// ReasonString resolves an interned reason code ("" for 0).
func (r *Recorder) ReasonString(c uint16) string {
	if r == nil {
		return ""
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if int(c) < len(r.reasons) {
		return r.reasons[c]
	}
	return ""
}

// Len reports how many records are currently retained (≤ capacity).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := 0
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		if sh.next < uint64(len(sh.buf)) {
			n += int(sh.next)
		} else {
			n += len(sh.buf)
		}
		sh.mu.Unlock()
	}
	return n
}

// Snapshot copies the retained records out of the rings and merges them
// into one stream ordered by sequence number. Recording may continue
// concurrently; each shard is consistent, the merge is best-effort
// point-in-time (the JFR dump model).
func (r *Recorder) Snapshot() []Record {
	if r == nil {
		return nil
	}
	var out []Record
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		n := uint64(len(sh.buf))
		if sh.next < n {
			n = sh.next
		}
		out = append(out, sh.buf[:n]...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}

// WriteJSON dumps the snapshot as JSON lines, one record per line, with
// method IDs and reason codes resolved to strings:
//
//	{"seq":12,"t_ns":51034,"kind":"compile_finish","method":"Main.getValue","bci":-1,"a":48211,"b":0}
//
// Records made through a Program view additionally carry "prog":<tag>, which
// tells the tenants of a shared ring apart even when their methods share a
// name.
//
// The format is hand-rolled (the fields are scalars and pre-escaped
// identifiers) so dumping never depends on reflection; peastat parses it
// with the ordinary JSON decoder.
func (r *Recorder) WriteJSON(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	for _, rec := range r.Snapshot() {
		bw.WriteString(`{"seq":`)
		bw.WriteString(strconv.FormatUint(rec.Seq, 10))
		bw.WriteString(`,"t_ns":`)
		bw.WriteString(strconv.FormatInt(rec.TNS, 10))
		bw.WriteString(`,"kind":"`)
		bw.WriteString(rec.Kind.String())
		bw.WriteString(`"`)
		if rec.Prog != 0 {
			bw.WriteString(`,"prog":`)
			bw.WriteString(strconv.FormatUint(uint64(rec.Prog), 10))
		}
		if name := r.methodName(rec.Prog, rec.Method); name != "" {
			bw.WriteString(`,"method":`)
			bw.WriteString(strconv.Quote(name))
		}
		bw.WriteString(`,"bci":`)
		bw.WriteString(strconv.FormatInt(int64(rec.BCI), 10))
		bw.WriteString(`,"a":`)
		bw.WriteString(strconv.FormatInt(rec.A, 10))
		bw.WriteString(`,"b":`)
		bw.WriteString(strconv.FormatInt(rec.B, 10))
		if reason := r.ReasonString(rec.Reason); reason != "" {
			bw.WriteString(`,"reason":`)
			bw.WriteString(strconv.Quote(reason))
		}
		bw.WriteString("}\n")
	}
	return bw.Flush()
}

// WriteFile dumps the snapshot to path (0644, truncating).
func (r *Recorder) WriteFile(path string) error {
	if r == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	werr := r.WriteJSON(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}
