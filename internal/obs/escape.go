package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// EscapeTable is a Backend that aggregates PEA/EA decision events by
// allocation site into a Table-1-style escape-attribution report: for every
// site ("Class.method@bci") it counts virtualizations, compile-time
// materializations (with their cause), deopt-time rematerializations, lock
// elisions, and the EA baseline's captured/escapes verdicts. Attach it to
// the VM's sink and render with Table after the run:
//
//	et := obs.NewEscapeTable()
//	sink.AddBackend(et)
//	...
//	fmt.Print(et.Table())
//
// Both it and the metrics registry fold the same stream, so the totals row
// equals the registry's Counter(KindVirtualize) and Counter(KindMaterialize)
// + Counter(KindMergeMaterialize).
type EscapeTable struct {
	mu    sync.Mutex
	sites map[string]*SiteStats
}

// SiteStats is the aggregated escape behavior of one allocation site.
type SiteStats struct {
	// Site is the allocation-site identity ("Class.method@bci"). Sites are
	// stable under inlining: the site names the method whose bytecode
	// contains the `new`, not the methods it was inlined into.
	Site string `json:"site"`
	// Class is the allocated class name (or "kind[len]" for arrays).
	Class string `json:"class,omitempty"`
	// Virtualized counts scalar-replacement decisions (the allocation was
	// removed from some compiled graph).
	Virtualized int64 `json:"virtualized"`
	// Materialized counts compile-time materializations: PEA re-inserted
	// the allocation on some path (merge, escape op, non-inlined call).
	Materialized int64 `json:"materialized"`
	// Remats counts deopt-time rematerializations by the VM runtime.
	Remats int64 `json:"remats,omitempty"`
	// KeptVirtual counts call arguments where the site's object stayed
	// virtual across a non-inlined call under a callee escape summary
	// (inter-procedural analysis, internal/summary).
	KeptVirtual int64 `json:"kept_virtual,omitempty"`
	// LocksElided counts elided monitor operations on the site's objects.
	LocksElided int64 `json:"locks_elided,omitempty"`
	// Captured/Escaped count the flow-insensitive EA baseline's verdicts.
	Captured int64 `json:"captured,omitempty"`
	Escaped  int64 `json:"escaped,omitempty"`
	// Reasons histograms materialization causes by coarse bucket: "merge"
	// (control-flow merges, Figure 6), "non-inlined-call" (the object
	// escaped into a call that was not inlined), "escape-op" (stores to
	// escaped state, returns, throws), and "deopt-remat" (rematerialized
	// while deoptimizing).
	Reasons map[string]int64 `json:"reasons,omitempty"`
	// DominantReason is the most frequent Reasons bucket with the most
	// frequent raw cause in parentheses, e.g. "escape-op (StoreStatic)".
	DominantReason string `json:"dominant_reason,omitempty"`

	// rawReasons histograms the uncoarsened reason strings for the
	// parenthesized detail of DominantReason.
	rawReasons map[string]int64
}

// NewEscapeTable creates an empty escape-attribution aggregator.
func NewEscapeTable() *EscapeTable {
	return &EscapeTable{sites: make(map[string]*SiteStats)}
}

// bucketReason coarsens a materialization cause into the paper's attribution
// buckets.
func bucketReason(kind Kind, reason string) string {
	if kind == KindVMRematerialize {
		return "deopt-remat"
	}
	switch {
	case strings.HasPrefix(reason, "merge-"):
		return "merge"
	case reason == "Invoke":
		return "non-inlined-call"
	case reason == "MonitorEnter" || reason == "MonitorExit":
		// Synchronization forced the object to exist (un-elidable
		// monitor) — distinct from call escapes so summary ablations
		// attribute wins to the right sites.
		return "monitor-sink"
	case reason == "Print":
		// Native output sink (currently unreachable for refs — print
		// takes ints — but the bucket keeps attribution exhaustive).
		return "print-sink"
	default:
		// StoreStatic, StoreField, Return, Throw, store-cycle,
		// non-const-index, ...: the object reached an operation that
		// forces it to exist.
		return "escape-op"
	}
}

// Write implements Backend. Events without attribution (no Site) fall back
// to the emitting method's name so hand-built graphs still aggregate.
func (t *EscapeTable) Write(e *Event) {
	switch e.Kind {
	case KindVirtualize, KindMaterialize, KindMergeMaterialize,
		KindLockElide, KindEAVerdict, KindVMRematerialize,
		KindSummaryKeptVirtual:
	default:
		return
	}
	site := e.Site
	if site == "" {
		site = e.Method
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.sites[site]
	if st == nil {
		st = &SiteStats{Site: site,
			Reasons:    make(map[string]int64),
			rawReasons: make(map[string]int64)}
		t.sites[site] = st
	}
	switch e.Kind {
	case KindVirtualize:
		st.Virtualized++
		st.Class = e.Detail
	case KindMaterialize, KindMergeMaterialize:
		st.Materialized++
		st.Reasons[bucketReason(e.Kind, e.Reason)]++
		st.rawReasons[e.Reason]++
	case KindVMRematerialize:
		st.Remats++
		st.Reasons["deopt-remat"]++
		st.rawReasons["deopt-remat"]++
		if st.Class == "" {
			st.Class = e.Detail
		}
	case KindLockElide:
		st.LocksElided++
	case KindSummaryKeptVirtual:
		st.KeptVirtual++
	case KindEAVerdict:
		if e.Detail == "captured" {
			st.Captured++
		} else {
			st.Escaped++
		}
	}
}

// dominant returns the highest-count key of h (ties break alphabetically,
// for determinism) or "" when h is empty.
func dominant(h map[string]int64) string {
	best, bestN := "", int64(-1)
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if h[k] > bestN {
			best, bestN = k, h[k]
		}
	}
	return best
}

// Snapshot returns the per-site statistics sorted by site, with
// DominantReason resolved. The returned slice is a deep-enough copy:
// mutating it does not affect the aggregator.
func (t *EscapeTable) Snapshot() []SiteStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SiteStats, 0, len(t.sites))
	for _, st := range t.sites {
		c := *st
		c.Reasons = make(map[string]int64, len(st.Reasons))
		for k, v := range st.Reasons {
			c.Reasons[k] = v
		}
		c.rawReasons = nil
		if b := dominant(st.Reasons); b != "" {
			raw := dominant(st.rawReasons)
			if raw != "" && raw != b {
				c.DominantReason = fmt.Sprintf("%s (%s)", b, raw)
			} else {
				c.DominantReason = b
			}
		}
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// Table renders the aggregation as a fixed-width text table (the paper's
// Table 1 shape) with a totals row. Totals agree with the metrics registry:
// sum(virt) == Counter(KindVirtualize), sum(mat) == Counter(KindMaterialize)
// + Counter(KindMergeMaterialize), sum(remat) == Counter(KindVMRematerialize),
// sum(locks) == Counter(KindLockElide).
func (t *EscapeTable) Table() string {
	snap := t.Snapshot()
	var b strings.Builder
	fmt.Fprintf(&b, "%-32s %-10s %6s %6s %6s %6s %6s  %s\n",
		"SITE", "CLASS", "VIRT", "MAT", "REMAT", "LOCKS", "KEPT", "DOMINANT REASON")
	var virt, mat, remat, locks, kept int64
	for _, s := range snap {
		fmt.Fprintf(&b, "%-32s %-10s %6d %6d %6d %6d %6d  %s\n",
			s.Site, s.Class, s.Virtualized, s.Materialized, s.Remats,
			s.LocksElided, s.KeptVirtual, s.DominantReason)
		virt += s.Virtualized
		mat += s.Materialized
		remat += s.Remats
		locks += s.LocksElided
		kept += s.KeptVirtual
	}
	fmt.Fprintf(&b, "%-32s %-10s %6d %6d %6d %6d %6d\n",
		"TOTAL", "", virt, mat, remat, locks, kept)
	return b.String()
}
