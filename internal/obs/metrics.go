package obs

import (
	"expvar"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Well-known counter names. Decision events emitted through a Sink with an
// attached Metrics registry bump these automatically, so event streams and
// metric snapshots always agree.
const (
	MetricInlines           = "opt.inlines"
	MetricVirtualized       = "pea.virtualized"
	MetricMaterialized      = "pea.materialized"
	MetricMergeMaterialized = "pea.merge_materialized"
	MetricLocksElided       = "pea.locks_elided"
	MetricPEABailouts       = "pea.bailouts"
	MetricEACaptured        = "ea.captured"
	MetricEAEscaped         = "ea.escaped"
	MetricSummarySets       = "summary.sets"
	MetricSummaryKept       = "summary.kept_virtual"
	MetricVMCompiles        = "vm.compiles"
	MetricVMDeopts          = "vm.deopts"
	MetricVMRemats          = "vm.rematerializations"
	MetricVMInvalidations   = "vm.invalidations"
	MetricVMRecompiles      = "vm.recompiles"
	MetricVMOSRRequests     = "vm.osr_requests"
	MetricVMOSREntries      = "vm.osr_entries"

	// Compile-broker counters (bumped by the broker event helpers).
	MetricBrokerSubmits     = "broker.submits"
	MetricBrokerCompiles    = "broker.compiles"
	MetricBrokerCacheHits   = "broker.cache_hits"
	MetricBrokerCacheMisses = "broker.cache_misses"
	MetricBrokerDiskHits    = "broker.disk_hits"
	MetricBrokerDedups      = "broker.dedups"
	MetricBrokerRejects     = "broker.rejects"
	MetricBrokerPanics      = "broker.panics"

	// Fault containment counters: retry/backoff re-arms and captured
	// crash reproducers.
	MetricVMRearms      = "vm.rearms"
	MetricVMCrashRepros = "vm.crash_repros"

	// Checker counter: IR sanitizer violations (any level).
	MetricCheckViolations = "check.violations"
)

// Well-known gauge names. The compile broker keeps these current while it
// runs; snapshots expose them next to the counters.
const (
	GaugeBrokerQueueDepth  = "broker.queue_depth"
	GaugeBrokerWorkersBusy = "broker.workers_busy"
	GaugeBrokerCacheSize   = "broker.cache_size"
	// GaugeBrokerQueueHighWater tracks the deepest the pending compile
	// queue has ever been (monotone; updated on submissions).
	GaugeBrokerQueueHighWater = "broker.queue_highwater"
)

// PhaseStat aggregates one compiler phase's timer: invocation count, total
// wall time, and cumulative node delta (nodes added minus removed).
type PhaseStat struct {
	Count     int64         `json:"count"`
	Total     time.Duration `json:"total_ns"`
	NodeDelta int64         `json:"node_delta"`
}

// Metrics is a registry of counters, gauges, and per-phase timers. A nil
// *Metrics is valid and inert (all methods early-return), so the registry
// can be threaded through hot paths unconditionally.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]int64
	phases   map[string]*PhaseStat
}

// NewMetrics creates an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]int64),
		gauges:   make(map[string]int64),
		phases:   make(map[string]*PhaseStat),
	}
}

// Add increments a counter by delta.
func (m *Metrics) Add(name string, delta int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += delta
	m.mu.Unlock()
}

// Counter returns the current value of a counter.
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// SetGauge sets a gauge to an absolute value.
func (m *Metrics) SetGauge(name string, v int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.gauges[name] = v
	m.mu.Unlock()
}

// Gauge returns the current value of a gauge.
func (m *Metrics) Gauge(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.gauges[name]
}

// ObservePhase records one run of a compiler phase: wall time and the node
// count delta across the phase.
func (m *Metrics) ObservePhase(phase string, d time.Duration, nodeDelta int) {
	if m == nil {
		return
	}
	m.mu.Lock()
	st := m.phases[phase]
	if st == nil {
		st = &PhaseStat{}
		m.phases[phase] = st
	}
	st.Count++
	st.Total += d
	st.NodeDelta += int64(nodeDelta)
	m.mu.Unlock()
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
// encoding or table rendering.
type Snapshot struct {
	Counters map[string]int64     `json:"counters,omitempty"`
	Gauges   map[string]int64     `json:"gauges,omitempty"`
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
		Counters: make(map[string]int64, len(m.counters)),
		Gauges:   make(map[string]int64, len(m.gauges)),
		Phases:   make(map[string]PhaseStat, len(m.phases)),
	}
	for k, v := range m.counters {
		s.Counters[k] = v
	}
	for k, v := range m.gauges {
		s.Gauges[k] = v
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
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	if len(names) > 0 {
		b.WriteString("gauges:\n")
		for _, k := range names {
			fmt.Fprintf(&b, "  %-28s %d\n", k, s.Gauges[k])
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
