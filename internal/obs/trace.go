package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// TraceWriter is a Backend that renders events in the Chrome trace_event
// JSON-array format, loadable in Perfetto / chrome://tracing. Compiler
// phases become duration slices ("B"/"E" pairs), VM and broker lifecycle
// events become instant markers, and each method gets its own thread lane
// (named via "M" metadata events) so concurrent broker workers' compiles
// stack visually per method instead of interleaving.
//
// The writer emits incrementally; call Close to terminate the JSON array.
// Trace-viewer parsers accept an unterminated array too, so a trace cut off
// by a crash still loads.
type TraceWriter struct {
	mu     sync.Mutex
	w      io.Writer
	tids   map[string]int
	opened bool
	closed bool
	err    error
}

// NewTraceWriter creates a trace writer over w.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return &TraceWriter{w: w, tids: make(map[string]int)}
}

// traceEvent is one chrome trace_event record.
type traceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"` // microseconds
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Cat  string            `json:"cat,omitempty"`
	S    string            `json:"s,omitempty"` // instant scope
	Args map[string]string `json:"args,omitempty"`
}

// instantKinds maps lifecycle event kinds to a trace category.
var instantKinds = map[Kind]string{
	KindVMCompile:       "vm",
	KindVMDeopt:         "vm",
	KindVMRematerialize: "vm",
	KindVMInvalidate:    "vm",
	KindVMRecompile:     "vm",
	KindVMOSRRequest:    "vm",
	KindVMOSREnter:      "vm",
	KindVMRearm:         "vm",
	KindVMCrashRepro:    "vm",
	KindBrokerSubmit:    "broker",
	KindCompileStart:    "broker",
	KindBrokerInstall:   "broker",
	KindCompileFail:     "broker",
	KindBrokerDedup:     "broker",
	KindBrokerReject:    "broker",
	KindBrokerPanic:     "broker",
	KindPEABailout:      "pea",
	KindCheckViolation:  "check",
}

// Write implements Backend.
func (t *TraceWriter) Write(e *Event) {
	var te traceEvent
	switch {
	case e.Kind == KindPhaseStart:
		te = traceEvent{Name: e.Phase, Ph: "B", Cat: "compile"}
	case e.Kind == KindPhaseEnd:
		te = traceEvent{Name: e.Phase, Ph: "E", Cat: "compile"}
	default:
		cat, ok := instantKinds[e.Kind]
		if !ok {
			return
		}
		te = traceEvent{Name: e.Kind.String(), Ph: "i", Cat: cat, S: "t"}
		args := make(map[string]string, 2)
		if e.Reason != "" {
			args["reason"] = e.Reason
		}
		if e.Detail != "" {
			args["detail"] = e.Detail
		}
		if e.Site != "" {
			args["site"] = e.Site
		}
		if len(args) > 0 {
			te.Args = args
		}
	}
	te.TS = e.TNS / 1000
	te.PID = 1

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed || t.err != nil {
		return
	}
	tid, ok := t.tids[e.Method]
	if !ok {
		// First event for this method: allocate a lane (first-seen order)
		// and emit its thread_name metadata record.
		tid = len(t.tids) + 1
		t.tids[e.Method] = tid
		name := e.Method
		if name == "" {
			name = "(vm)"
		}
		t.emit(traceEvent{Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]string{"name": name}})
	}
	te.TID = tid
	t.emit(te)
}

// emit writes one record with the array framing (caller holds t.mu).
func (t *TraceWriter) emit(te traceEvent) {
	b, err := json.Marshal(te)
	if err != nil {
		t.err = err
		return
	}
	sep := ",\n"
	if !t.opened {
		sep = "[\n"
		t.opened = true
	}
	if _, err := io.WriteString(t.w, sep); err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(b); err != nil {
		t.err = err
	}
}

// Close terminates the JSON array. Further writes are dropped.
func (t *TraceWriter) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return t.err
	}
	t.closed = true
	if t.err != nil {
		return t.err
	}
	end := "]\n"
	if !t.opened {
		end = "[]\n"
	}
	if _, err := io.WriteString(t.w, end); err != nil {
		t.err = err
	}
	return t.err
}
