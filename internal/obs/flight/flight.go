// Package flight is the storage under the obs sink's always-on ring: a
// fixed-size, sharded buffer of pointer-free records, the sequence that
// orders them, the interned reason strings they refer to, and the
// per-program method-name tables a dump resolves them through. What a record
// means — its kind, which event fields its scalars stand for, the clock that
// stamps it — is package obs's, the one importer; this package only keeps
// records.
//
// Design constraints:
//
//   - Put must be allocation-free and cheap enough to stay on with
//     production workloads: the sink records only at compile, deopt and OSR
//     boundaries, never per interpreted or compiled step. Records contain no
//     pointers, and strings cross the boundary as interned codes.
//
//   - The buffer is allocated, in one piece, by the first Put, not by New:
//     a VM that never compiles never pays for its ring.
//
//   - One ring serves a whole process. Method IDs are dense per program, so
//     a server running many programs hands each one a view of the shared
//     ring (Recorder.Program) that stamps its records with a program tag;
//     a dump resolves a record's method through its program's name table.
//
//   - Writers must be race-free under `go test -race` with many broker
//     workers recording concurrently. Slots are guarded by per-shard
//     mutexes; the ring's sequence distributes consecutive records
//     round-robin over the shards, so two concurrent recorders collide on a
//     lock only 1/shardCount of the time, and a snapshot re-merges one
//     totally ordered stream by sequence number.
package flight

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Record is one fixed-size ring slot. It carries no pointers: recording
// copies scalars into a preallocated slot, and snapshots copy slots
// wholesale. Kind is the obs kind; Method is a dense bc.Method ID (-1
// unknown) of the program tagged Prog (0 for the root view), resolved to a
// name at dump time; Reason is an interned string code (see
// Recorder.Reason). The record is 48 bytes.
type Record struct {
	Seq    uint64
	TNS    int64
	Kind   uint8
	Reason uint16
	Method int32
	BCI    int32
	Prog   uint32
	A, B   int64
}

// shardCount is the number of independently locked rings (power of two).
const shardCount = 8

// Capacity is the ring's total slot count: enough for the recent
// compile/deopt history of a large run at 48 bytes per slot (~200 KiB),
// small enough to never matter.
const Capacity = 4096

// maxReasons bounds the intern table; code 1 ("<other>") absorbs overflow
// so a pathological stream of distinct reason strings cannot grow memory.
const maxReasons = 1024

type shard struct {
	mu   sync.Mutex
	buf  []Record
	next uint64 // total records ever written to this shard
}

// Recorder is one program's view of a sharded ring: New creates the ring
// with its root view, Program derives further views that share the ring and
// differ only in the program tag they stamp on records. A nil *Recorder is
// inert.
type Recorder struct {
	*ring
	prog uint32
}

// ring is the state every view of one recorder shares.
type ring struct {
	seq    atomic.Uint64
	shards [shardCount]shard

	mu       sync.RWMutex
	slots    []Record            // the shards' buffers, allocated by the first Put
	names    map[uint32][]string // program tag → dense method ID → qualified name
	lastProg uint32              // highest program tag handed out
	reasons  []string            // reason code → string; [0]="", [1]="<other>"
	codeOf   map[string]uint16   // reverse intern map
}

// New creates an empty ring and returns its root view.
func New() *Recorder {
	return &Recorder{ring: &ring{
		names:   make(map[uint32][]string),
		reasons: []string{"", "<other>"},
		codeOf:  make(map[string]uint16),
	}}
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

// Tag is the program tag the view stamps on its records (0 for the root).
func (r *Recorder) Tag() uint32 {
	if r == nil {
		return 0
	}
	return r.prog
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

// Next draws the ring's next sequence number. Every record carries one, and
// the obs sink draws them for the events it traces without recording too,
// so a ring dump is a sub-stream of the trace.
func (r *Recorder) Next() uint64 {
	if r == nil {
		return 0
	}
	return r.seq.Add(1)
}

// Put stores rec, stamped with the view's program tag, in the slot its
// sequence number selects. It is the always-on fast path: safe for
// concurrent use, zero allocations once the ring's slots exist, no
// interface conversions, a single uncontended-in-expectation mutex.
func (r *Recorder) Put(rec Record) {
	if r == nil {
		return
	}
	rec.Prog = r.prog
	i := rec.Seq & (shardCount - 1)
	sh := &r.shards[i]
	sh.mu.Lock()
	if sh.buf == nil {
		sh.buf = r.shardBuf(i)
	}
	sh.buf[sh.next%uint64(len(sh.buf))] = rec
	sh.next++
	sh.mu.Unlock()
}

// shardBuf returns shard i's part of the ring's slots, allocating them all on
// the first call.
func (r *ring) shardBuf(i uint64) []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.slots == nil {
		r.slots = make([]Record, Capacity)
	}
	const per = Capacity / shardCount
	return r.slots[i*per : (i+1)*per : (i+1)*per]
}

// Reason interns s and returns its code. The table is bounded: once
// maxReasons distinct strings have been seen, further new strings map to
// the shared "<other>" code. Known strings (deopt reasons, install sources)
// pay one read-locked map lookup and no allocation.
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
// view's own program. A VM given a ring without one calls it at startup.
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

// MethodName resolves dense method ID id of the program tagged prog ("" if
// unknown).
func (r *Recorder) MethodName(prog uint32, id int32) string {
	if r == nil || id < 0 {
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

// Snapshot copies the retained records out of the shards and merges them
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
		out = append(out, sh.buf[:min(sh.next, uint64(len(sh.buf)))]...)
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out
}
