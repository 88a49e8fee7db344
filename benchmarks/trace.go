package benchmarks

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed call into a layer's public function, recorded by the
// harness from outside the layer. Spans of one op or request share Op;
// Parent is the enclosing span's ID (0 at top level).
type Span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Op      string `json:"op,omitempty"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends. It is used from one
// goroutine: every traced section of the benchmark is single-threaded.
type tracer struct {
	t0    time.Time
	spans []Span
	stack []int
	op    string
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setOp names the op or request that the following spans belong to.
func (t *tracer) setOp(op string) { t.op = op }

func (t *tracer) begin(name string) {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Op: t.op,
		StartNS: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[id-1]
	s.EndNS = now
	return time.Duration(s.EndNS - s.StartNS)
}

// span records f as a span and returns its duration. A nil tracer only times
// f, so code shared by traced and untraced runs has one shape.
func (t *tracer) span(name string, f func()) time.Duration {
	if t == nil {
		start := time.Now()
		f()
		return time.Since(start)
	}
	t.begin(name)
	f()
	return t.end()
}

// leaf records an already-timed interval as a span under the current parent
// (the steady loop times each op itself so the untraced path stays free of
// tracer calls).
func (t *tracer) leaf(name, op string, start, end time.Time) {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, Span{ID: len(t.spans) + 1, Parent: parent, Name: name, Op: op,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
}

// childTime returns, indexed by span ID, the total duration of each span's
// direct children (index 0: the top-level spans).
func (t *tracer) childTime() []int64 {
	child := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		child[s.Parent] += s.EndNS - s.StartNS
	}
	return child
}

// selfTimes returns, per span name, the total duration minus the part covered
// by child spans.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := t.childTime()
	out := make(map[string]time.Duration)
	for _, s := range t.spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - child[s.ID])
	}
	return out
}

// coverage is the share of the wall time of the spans called name that their
// direct children account for.
func (t *tracer) coverage(name string) float64 {
	child := t.childTime()
	var total, covered int64
	for _, s := range t.spans {
		if s.Name == name {
			total += s.EndNS - s.StartNS
			covered += child[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}

// LayerSelf is one row of the "top layers by self time" table.
type LayerSelf struct {
	Name   string  `json:"name"`
	SelfMS float64 `json:"self_ms"`
}

func (t *tracer) topSelf(n int) []LayerSelf {
	var rows []LayerSelf
	for name, d := range t.selfTimes() {
		rows = append(rows, LayerSelf{name, float64(d.Nanoseconds()) / 1e6})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfMS != rows[j].SelfMS {
			return rows[i].SelfMS > rows[j].SelfMS
		}
		return rows[i].Name < rows[j].Name
	})
	if len(rows) > n {
		rows = rows[:n]
	}
	return rows
}

// write stores the spans as benchmarks/out/trace-<workload>.json.
func (t *tracer) write(outDir, workload string) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []Span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, "trace-"+workload+".json"), data, 0o644)
}
