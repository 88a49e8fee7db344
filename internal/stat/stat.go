// Package stat is the offline analyzer behind cmd/peastat. It reads the
// JSONL event stream an obs sink produces — its trace (peavm -trace-events)
// and dumps of its ring (peavm -flight-dump, dump-on-panic files,
// /debug/pea/flight) — in any mix, and aggregates it into one report:
// compile-latency percentiles, code-cache hit rate, top deoptimization
// reasons, and the per-site escape attribution table.
//
// Every line is one obs.Event. A ring dump is a sub-stream of its sink's
// trace: a record and the trace line of the same occurrence carry the same
// seq, t_ns and kind, so an occurrence read twice — both dumps of one run —
// counts once. The sequence number alone would not identify it: every
// process starts its own, while t_ns is wall-clock time.
package stat

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"pea/internal/obs"
)

// Report is the aggregated analysis of one or more JSONL streams.
type Report struct {
	Lines int // non-empty input lines
	// Duplicates counts lines dropped as an occurrence already read.
	Duplicates int

	// Compile latency: the broker time of every unit a broker resolved,
	// from its broker_install or compile_fail event.
	CompileCount int
	CompileP50   time.Duration
	CompileP99   time.Duration

	// Code-cache behavior, from broker_install sources.
	CacheHits   int64
	CacheMisses int64

	// Installs counts vm_compile events (code published into a VM's code
	// table); WarmInstalls is the share of them triggered cache-first — at
	// a method's first call or a loop's first back edge, before the unit
	// was hot. The trace only: the ring does not keep vm_compile.
	Installs     int64
	WarmInstalls int64

	// DeoptReasons histograms vm_deopt events.
	Deopts       int64
	DeoptReasons map[string]int64

	// Escape aggregates the per-site attribution of the decision events.
	Escape *obs.EscapeTable

	// Events retains the distinct events in input order, for format
	// conversion (peastat -chrome replays them through obs.TraceWriter).
	Events []obs.Event
}

// occurrence identifies one event across the streams of a run.
type occurrence struct {
	seq, tns int64
	kind     obs.Kind
}

// Analyze reads JSONL from r and aggregates it. A line that is not a valid
// event is an error; empty lines are skipped.
func Analyze(r io.Reader) (*Report, error) {
	rep := &Report{
		DeoptReasons: make(map[string]int64),
		Escape:       obs.NewEscapeTable(),
	}
	seen := make(map[occurrence]bool)
	var latencies []int64

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		text := strings.TrimSpace(sc.Text())
		lineNo++
		if text == "" {
			continue
		}
		rep.Lines++

		var e obs.Event
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("stat: line %d: %w", lineNo, err)
		}
		if e.Kind == 0 {
			return nil, fmt.Errorf("stat: line %d: no event kind", lineNo)
		}
		o := occurrence{e.Seq, e.TNS, e.Kind}
		if seen[o] {
			rep.Duplicates++
			continue
		}
		seen[o] = true
		rep.Events = append(rep.Events, e)
		rep.Escape.Write(&e)
		switch e.Kind {
		case obs.KindBrokerInstall:
			latencies = append(latencies, e.DurationNS)
			if e.Detail == "cache" {
				rep.CacheHits++
			} else {
				rep.CacheMisses++
			}
		case obs.KindCompileFail:
			latencies = append(latencies, e.DurationNS)
		case obs.KindVMDeopt:
			rep.Deopts++
			rep.DeoptReasons[reasonOr(e.Reason)]++
		case obs.KindVMCompile:
			rep.Installs++
			if e.Reason == obs.TriggerCacheFirst {
				rep.WarmInstalls++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stat: %w", err)
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.CompileCount = len(latencies)
	rep.CompileP50 = percentile(latencies, 50)
	rep.CompileP99 = percentile(latencies, 99)
	return rep, nil
}

func reasonOr(r string) string {
	if r == "" {
		return "<none>"
	}
	return r
}

// percentile returns the p-th percentile (nearest-rank) of sorted ns values.
func percentile(sorted []int64, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := (len(sorted)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return time.Duration(sorted[rank-1])
}

// Text renders the report for terminals.
func (rep *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "events: %d (%d read twice)\n", len(rep.Events), rep.Duplicates)
	if rep.CompileCount > 0 {
		fmt.Fprintf(&b, "compiles: %d  p50 %s  p99 %s\n",
			rep.CompileCount, rep.CompileP50, rep.CompileP99)
	}
	if tot := rep.CacheHits + rep.CacheMisses; tot > 0 {
		fmt.Fprintf(&b, "code cache: %d/%d hits (%.0f%%)\n",
			rep.CacheHits, tot, 100*float64(rep.CacheHits)/float64(tot))
	}
	if rep.Installs > 0 {
		fmt.Fprintf(&b, "installs: %d (%d warm, cache-first)\n", rep.Installs, rep.WarmInstalls)
	}
	if rep.Deopts > 0 {
		fmt.Fprintf(&b, "deopts: %d\n", rep.Deopts)
		type rc struct {
			reason string
			n      int64
		}
		rs := make([]rc, 0, len(rep.DeoptReasons))
		for r, n := range rep.DeoptReasons {
			rs = append(rs, rc{r, n})
		}
		sort.Slice(rs, func(i, j int) bool {
			if rs[i].n != rs[j].n {
				return rs[i].n > rs[j].n
			}
			return rs[i].reason < rs[j].reason
		})
		for _, r := range rs {
			fmt.Fprintf(&b, "  %-28s %d\n", r.reason, r.n)
		}
	}
	if snap := rep.Escape.Snapshot(); len(snap) > 0 {
		fmt.Fprintf(&b, "escape attribution:\n%s", rep.Escape.Table())
	}
	return b.String()
}
