// Package stat is the offline analyzer behind cmd/peastat. It consumes the
// two JSONL streams the system produces — structured obs events (from
// peavm/peabench event logs or /debug/pea/flight's sibling endpoints) and
// flight-recorder dumps (dump-on-panic files, /debug/pea/flight) — in any
// mix, and aggregates them into one report: compile-latency percentiles,
// code-cache hit rate, top deoptimization reasons, and the per-site escape
// attribution table.
//
// The two stream formats share field names (both emit {"seq","t_ns","kind",
// ...} lines) but are distinguished structurally: flight records always
// carry a "bci" field, obs events never do.
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

// flightLine mirrors one flight.Recorder JSONL record.
type flightLine struct {
	Seq    uint64 `json:"seq"`
	TNS    int64  `json:"t_ns"`
	Kind   string `json:"kind"`
	Method string `json:"method"`
	BCI    *int   `json:"bci"` // presence discriminates flight vs obs lines
	A      int64  `json:"a"`
	B      int64  `json:"b"`
	Reason string `json:"reason"`
}

// Report is the aggregated analysis of one or more JSONL streams.
type Report struct {
	Lines        int // non-empty input lines
	ObsEvents    int
	FlightEvents int

	// Compile latency. Preferred source: flight compile_finish records,
	// whose A value is the broker-measured wall time of one compilation
	// (pipeline or cache replay). Fallback when the input has no flight
	// stream: per-method sums of obs phase_end durations, split into
	// compiles at each "build"/"build-osr" phase_start.
	CompileCount int
	CompileP50   time.Duration
	CompileP99   time.Duration

	// Code-cache behavior, from flight compile_finish reasons when
	// present, else obs broker_install events.
	CacheHits   int64
	CacheMisses int64

	// Installs counts vm_compile events (code published into a VM's code
	// table); WarmInstalls is the share of them triggered cache-first — at
	// a method's first call or a loop's first back edge, before the unit
	// was hot. Obs events only: a flight record does not say what asked
	// for the code.
	Installs     int64
	WarmInstalls int64

	// DeoptReasons histograms vm_deopt events and flight deopt records.
	Deopts       int64
	DeoptReasons map[string]int64

	// Escape aggregates the per-site attribution from obs decision events
	// and flight materialize records.
	Escape *obs.EscapeTable

	// Events retains the parsed obs events in input order, for format
	// conversion (peastat -chrome replays them through obs.TraceWriter).
	Events []obs.Event

	// latencies in ns, sorted by Analyze before percentile extraction.
	latencies []int64
	// flightMats buffers escape events reconstructed from flight
	// materialize records; replayed only when the obs stream carried no
	// decision events, so overlapping dumps don't double-count sites.
	flightMats   []obs.Event
	obsDecisions int
}

// Analyze reads JSONL from r and aggregates it. Lines that are not valid
// JSON objects are an error (a truncated final line is tolerated only if it
// is the stream's last); empty lines are skipped.
func Analyze(r io.Reader) (*Report, error) {
	rep := &Report{
		DeoptReasons: make(map[string]int64),
		Escape:       obs.NewEscapeTable(),
	}

	// Fallback compile-latency accumulation from obs phase timing.
	obsAccum := make(map[string]int64)
	var obsLatencies []int64
	flushObs := func(method string) {
		if ns := obsAccum[method]; ns > 0 {
			obsLatencies = append(obsLatencies, ns)
			obsAccum[method] = 0
		}
	}
	var obsCacheHits, obsCacheMisses int64

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

		var fl flightLine
		if err := json.Unmarshal([]byte(text), &fl); err != nil {
			return nil, fmt.Errorf("stat: line %d: %w", lineNo, err)
		}
		if fl.BCI != nil {
			rep.FlightEvents++
			rep.ingestFlight(&fl)
			continue
		}

		var e obs.Event
		if err := json.Unmarshal([]byte(text), &e); err != nil {
			return nil, fmt.Errorf("stat: line %d: %w", lineNo, err)
		}
		if e.Kind == "" {
			return nil, fmt.Errorf("stat: line %d: no event kind", lineNo)
		}
		rep.ObsEvents++
		rep.Events = append(rep.Events, e)
		rep.Escape.Write(&e)
		switch e.Kind {
		case obs.KindVirtualize, obs.KindMaterialize, obs.KindMergeMaterialize,
			obs.KindLockElide, obs.KindEAVerdict, obs.KindVMRematerialize:
			rep.obsDecisions++
		}
		switch e.Kind {
		case obs.KindPhaseStart:
			if e.Phase == "build" || e.Phase == "build-osr" {
				flushObs(e.Method)
			}
		case obs.KindPhaseEnd:
			obsAccum[e.Method] += e.DurationNS
		case obs.KindVMDeopt:
			rep.Deopts++
			rep.DeoptReasons[reasonOr(e.Reason)]++
		case obs.KindVMCompile:
			rep.Installs++
			if e.Reason == obs.TriggerCacheFirst {
				rep.WarmInstalls++
			}
		case obs.KindBrokerInstall:
			if e.Detail == "cache" {
				obsCacheHits++
			} else {
				obsCacheMisses++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("stat: %w", err)
	}

	if len(rep.latencies) == 0 {
		// No flight compile_finish records: fall back to obs phase sums.
		for m := range obsAccum {
			flushObs(m)
		}
		rep.latencies = obsLatencies
	}
	if rep.CacheHits+rep.CacheMisses == 0 {
		rep.CacheHits, rep.CacheMisses = obsCacheHits, obsCacheMisses
	}
	if rep.obsDecisions == 0 {
		// No obs decision events: the flight ring is the only escape
		// attribution source, so replay its materialize records now.
		for i := range rep.flightMats {
			rep.Escape.Write(&rep.flightMats[i])
		}
	}
	sort.Slice(rep.latencies, func(i, j int) bool { return rep.latencies[i] < rep.latencies[j] })
	rep.CompileCount = len(rep.latencies)
	rep.CompileP50 = percentile(rep.latencies, 50)
	rep.CompileP99 = percentile(rep.latencies, 99)
	return rep, nil
}

// ingestFlight folds one flight record into the report.
func (rep *Report) ingestFlight(fl *flightLine) {
	switch fl.Kind {
	case "compile_finish":
		rep.latencies = append(rep.latencies, fl.A)
		switch {
		case fl.Reason == "cache":
			rep.CacheHits++
		case fl.B == 0:
			rep.CacheMisses++
		}
	case "deopt":
		rep.Deopts++
		rep.DeoptReasons[reasonOr(fl.Reason)]++
	case "materialize":
		// Reconstruct the site from the record's scalars, as a deopt-time
		// remat or a compile-time materialization depending on the
		// recorded cause. Buffered: replayed into the escape aggregator
		// only when the obs stream has no decision events of its own.
		site := fl.Method
		if site != "" && *fl.BCI >= 0 {
			site = fmt.Sprintf("%s@%d", site, *fl.BCI)
		}
		e := obs.Event{Method: fl.Method, Site: site, Reason: fl.Reason}
		if fl.Reason == "deopt-remat" {
			e.Kind = obs.KindVMRematerialize
		} else {
			e.Kind = obs.KindMaterialize
		}
		rep.flightMats = append(rep.flightMats, e)
	}
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
	fmt.Fprintf(&b, "events: %d (%d obs, %d flight)\n",
		rep.Lines, rep.ObsEvents, rep.FlightEvents)
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
