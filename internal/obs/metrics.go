package obs

import (
	"expvar"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// MetricInlines names the counter of inlining decisions, the inline kind's;
// benchmarks/pipeline.go reads opt.inline.count through it.
const MetricInlines = KindInline

// PhaseStat aggregates one compiler phase's timer: invocation count, total
// wall time, and cumulative node delta (nodes added minus removed).
type PhaseStat struct {
	Count     int64         `json:"count"`
	Total     time.Duration `json:"total_ns"`
	NodeDelta int64         `json:"node_delta"`
}

// Metrics is a fold over an event stream: attached to a sink (AddBackend, or
// SetMetrics), it counts the events of every kind and sums each phase's
// phase_end events into a timer. It keeps nothing the stream does not
// carry, so a counter always equals the number of events of its kind. A nil
// *Metrics reads as empty.
type Metrics struct {
	mu       sync.Mutex
	counters [len(kindNames)]int64
	phases   map[string]*PhaseStat
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{phases: make(map[string]*PhaseStat)}
}

// Write implements Backend: one more event of e.Kind and, for a phase_end,
// one more run of its phase.
func (m *Metrics) Write(e *Event) {
	m.mu.Lock()
	m.counters[e.Kind]++
	if e.Kind == KindPhaseEnd {
		st := m.phases[e.Phase]
		if st == nil {
			st = &PhaseStat{}
			m.phases[e.Phase] = st
		}
		st.Count++
		st.Total += time.Duration(e.DurationNS)
		st.NodeDelta += int64(e.NodesAfter - e.NodesBefore)
	}
	m.mu.Unlock()
}

// Counter returns the number of events of kind k seen so far.
func (m *Metrics) Counter(k Kind) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[k]
}

// Phase returns a copy of the named phase's stats.
func (m *Metrics) Phase(phase string) PhaseStat {
	if m == nil {
		return PhaseStat{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if st := m.phases[phase]; st != nil {
		return *st
	}
	return PhaseStat{}
}

// Snapshot is a point-in-time copy of the registry, suitable for JSON
// encoding or table rendering. Counters are keyed by kind name and list the
// kinds seen at least once.
type Snapshot struct {
	Counters map[string]int64     `json:"counters,omitempty"`
	Phases   map[string]PhaseStat `json:"phases,omitempty"`
}

// Snapshot copies the registry's current state.
func (m *Metrics) Snapshot() Snapshot {
	if m == nil {
		return Snapshot{}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		Counters: make(map[string]int64),
		Phases:   make(map[string]PhaseStat, len(m.phases)),
	}
	for k, v := range m.counters {
		if v != 0 {
			s.Counters[Kind(k).String()] = v
		}
	}
	for k, v := range m.phases {
		s.Phases[k] = *v
	}
	return s
}

// Table renders the snapshot as an aligned human-readable table.
func (s Snapshot) Table() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) > 0 {
		b.WriteString("counters:\n")
		for _, k := range names {
			fmt.Fprintf(&b, "  %-28s %d\n", k, s.Counters[k])
		}
	}
	names = names[:0]
	for k := range s.Phases {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) > 0 {
		b.WriteString("phases:\n")
		fmt.Fprintf(&b, "  %-16s %8s %14s %12s\n", "phase", "runs", "total", "node-delta")
		for _, k := range names {
			st := s.Phases[k]
			fmt.Fprintf(&b, "  %-16s %8d %14s %+12d\n", k, st.Count, st.Total, st.NodeDelta)
		}
	}
	return b.String()
}

var expvarOnce sync.Once

// PublishExpvar publishes the registry under the expvar name
// "compiler_metrics" (first call wins; later calls on other registries are
// no-ops, matching expvar's single-namespace model).
func (m *Metrics) PublishExpvar() {
	if m == nil {
		return
	}
	expvarOnce.Do(func() {
		expvar.Publish("compiler_metrics", expvar.Func(func() any {
			return m.Snapshot()
		}))
	})
}
