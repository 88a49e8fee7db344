package benchmarks

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
)

// failures collects every reference mismatch and failed operation of a run;
// each one counts in failed_share and makes the command exit non-zero.
type failures struct {
	n     int
	notes []string
}

func (f *failures) add(format string, args ...any) {
	f.n++
	if len(f.notes) < 20 {
		f.notes = append(f.notes, fmt.Sprintf(format, args...))
	}
}

// goSample is a reading of the Go runtime counters the rt.* layer metrics are
// built from: the guest heap is the Go heap here, so Go's allocator and
// collector are the memory manager of the generated code.
type goSample struct {
	mallocs, bytes, gcCycles uint64
	gcCPU, totalCPU, pauseS  float64
}

type goDelta goSample

var goNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readGo() goSample {
	s := make([]metrics.Sample, len(goNames))
	for i, n := range goNames {
		s[i].Name = n
	}
	metrics.Read(s)
	out := goSample{
		mallocs: s[0].Value.Uint64(), bytes: s[1].Value.Uint64(), gcCycles: s[2].Value.Uint64(),
		gcCPU: s[3].Value.Float64(), totalCPU: s[4].Value.Float64(),
	}
	// The pause metric is a histogram; its total is Σ count × bucket midpoint.
	if s[5].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[5].Value.Float64Histogram()
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if lo < 0 {
				lo = 0
			}
			if hi > 1 { // +Inf bucket
				hi = lo
			}
			out.pauseS += float64(c) * (lo + hi) / 2
		}
	}
	return out
}

func (d goDelta) plus(o goDelta) goDelta {
	return goDelta{
		mallocs: d.mallocs + o.mallocs, bytes: d.bytes + o.bytes, gcCycles: d.gcCycles + o.gcCycles,
		gcCPU: d.gcCPU + o.gcCPU, totalCPU: d.totalCPU + o.totalCPU, pauseS: d.pauseS + o.pauseS,
	}
}

func (a goSample) sub(b goSample) goDelta {
	return goDelta{
		mallocs: a.mallocs - b.mallocs, bytes: a.bytes - b.bytes, gcCycles: a.gcCycles - b.gcCycles,
		gcCPU: a.gcCPU - b.gcCPU, totalCPU: a.totalCPU - b.totalCPU, pauseS: a.pauseS - b.pauseS,
	}
}

// pinProcs pins GOMAXPROCS to min(nproc, 2) and returns the value: the
// sandbox has two vCPUs, and a run on a larger box should measure the same
// configuration.
func pinProcs() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	runtime.GOMAXPROCS(n)
	return n
}

// peakRSSMB is this process's ru_maxrss in MiB (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
