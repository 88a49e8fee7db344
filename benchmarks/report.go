package benchmarks

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"pea/internal/bench"
)

const reportSchema = "peaperf/1"

// Report is the file peaperf run -out writes: every run of every workload,
// traced and untraced, in the order they were made.
type Report struct {
	Schema string    `json:"schema"`
	Runs   []*Result `json:"runs"`
}

// ReadReport loads a result file.
func ReadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &Report{}
	if err := json.Unmarshal(data, r); err != nil {
		return nil, fmt.Errorf("benchmarks: %s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("benchmarks: %s has schema %q, want %q", path, r.Schema, reportSchema)
	}
	return r, nil
}

// Write stores the report at path.
func (r *Report) Write(path string) error {
	r.Schema = reportSchema
	data, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Print writes every metric of res by name with its unit, and beside every
// timing the number of samples it summarizes.
func (res *Result) Print(out io.Writer) {
	kind := "end-to-end"
	defs := EndToEnd
	if res.Trace {
		kind, defs = "per-layer (traced)", PerLayer
	}
	fmt.Fprintf(out, "workload %s  seed %d  scale %.3g  GOMAXPROCS %d  %s  wall %.1f s\n",
		res.Workload, res.Seed, res.Scale, res.GoMaxProcs, kind, res.WallS)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		samples := ""
		if m.Samples > 0 {
			samples = fmt.Sprintf("  (n=%d)", m.Samples)
		}
		fmt.Fprintf(out, "  %-28s %14.6g %-6s%s\n", d.Name, m.Value, m.Unit, samples)
	}
	fmt.Fprintf(out, "  %-28s %14.6g %-6s  (%d failed of %d attempted)\n", "failed_share", res.FailedShare, "ratio", res.Failed, res.Attempted)
	for _, n := range res.Notes {
		fmt.Fprintf(out, "  FAILED: %s\n", n)
	}
	if len(res.TopSelf) > 0 {
		fmt.Fprintf(out, "  top layers by self time:")
		for _, l := range res.TopSelf {
			fmt.Fprintf(out, "  %s %.1f ms", l.Name, l.SelfMS)
		}
		fmt.Fprintln(out)
	}
}

// ContractLine is the last line of standard output of a single-workload run:
// the object the benchmark driver reads.
func (res *Result) ContractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(res.Metrics))
	for name, m := range res.Metrics {
		metrics[name] = value{m.Value, m.Unit}
	}
	data, _ := json.Marshal(struct { // finite floats and strings always encode
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	return string(data)
}

// untraced groups the report's untraced runs by workload.
func (r *Report) untraced() map[string][]*Result {
	out := map[string][]*Result{}
	for _, res := range r.Runs {
		if !res.Trace {
			out[res.Workload] = append(out[res.Workload], res)
		}
	}
	return out
}

func values(runs []*Result, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.Metrics[metric].Value
	}
	return out
}

// Compare prints, per workload and end-to-end metric, both medians, how much
// worse b is than a, the bound and a verdict, and reports whether any row is
// "worse". A row whose run-to-run spread exceeds its bound is "unresolved"
// unless every run of b reads better than every run of a.
func Compare(out io.Writer, a, b *Report) (worse bool) {
	ra, rb := a.untraced(), b.untraced()
	fmt.Fprintf(out, "%-12s %-24s %13s %13s %9s %7s %8s  %s\n",
		"workload", "metric", "A median", "B median", "worse by", "bound", "spread", "verdict")
	for _, wl := range Workloads {
		as, bs := ra[wl.Name], rb[wl.Name]
		if len(as) == 0 || len(bs) == 0 {
			continue
		}
		for _, d := range EndToEnd {
			va, vb := values(as, d.Name), values(bs, d.Name)
			ma, mb := median(va), median(vb)
			sign := 1.0
			if d.Better == "higher" {
				sign = -1
			}
			worseBy := 0.0
			if ma != 0 {
				worseBy = sign * (mb - ma) / ma
			}
			sp := spread(va)
			if s := spread(vb); s > sp {
				sp = s
			}
			verdict := "ok"
			switch {
			case sp > d.Bound && !allBetter(va, vb, sign):
				verdict = "unresolved"
			case worseBy > d.Bound:
				verdict = "worse"
				worse = true
			}
			spreadCol := "n/a" // one run a side: the noise is unknown
			if len(va) > 1 || len(vb) > 1 {
				spreadCol = fmt.Sprintf("%.2f%%", 100*sp)
			}
			fmt.Fprintf(out, "%-12s %-24s %13.6g %13.6g %+8.2f%% %6.1f%% %8s  %s\n",
				wl.Name, d.Name, ma, mb, 100*worseBy, 100*d.Bound, spreadCol, verdict)
		}
		fa, fb := 0, 0
		for _, r := range as {
			fa += r.Failed
		}
		for _, r := range bs {
			fb += r.Failed
		}
		verdict := "ok"
		if fb > 0 {
			verdict = "worse"
			worse = true
		}
		fmt.Fprintf(out, "%-12s %-24s %13d %13d %9s %7s %8s  %s\n", wl.Name, "failed", fa, fb, "", "0", "", verdict)
	}
	return worse
}

// allBetter reports whether every value of b is better than every value of a.
func allBetter(a, b []float64, sign float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}

// Table1 prints the paper's Table 1 in wall clock: per program, the measured
// speed-up and the allocation and byte deltas of PEA against no escape
// analysis, beside the paper's row. It prefers the report's traced steady
// runs, which time both modes interleaved in one process; two separate
// untraced runs differ by the host's drift between them, which on a shared
// host can exceed the effect. Informational only — a faster allocator would
// legitimately shrink the speed-up column.
func Table1(out io.Writer, r *Report) error {
	type cell struct{ ns, allocs, kb []float64 }
	collect := func(traced bool) (with, without map[string]*cell, runs int) {
		with, without = map[string]*cell{}, map[string]*cell{}
		add := func(m map[string]*cell, rows []ProgramRow) {
			for _, row := range rows {
				c := m[row.Name]
				if c == nil {
					c = &cell{}
					m[row.Name] = c
				}
				c.ns = append(c.ns, row.NSPerOp)
				c.allocs = append(c.allocs, row.AllocsPerOp)
				c.kb = append(c.kb, row.KBPerOp)
			}
		}
		for _, res := range r.Runs {
			if res.Trace != traced || len(res.Programs) == 0 {
				continue
			}
			runs++
			native, other := with, without
			if res.Workload == "steady-noea" {
				native, other = without, with
			}
			add(native, res.Programs)
			add(other, res.PairedPrograms)
		}
		return with, without, runs
	}
	how := "both modes interleaved in one process"
	with, without, runs := collect(true)
	if runs == 0 {
		how = "separate processes: host drift between them is not cancelled"
		with, without, runs = collect(false)
	}
	if len(with) == 0 || len(without) == 0 {
		return fmt.Errorf("benchmarks: table1 needs a traced steady run, or untraced steady-pea and steady-noea runs, in the report")
	}
	var names []string
	for n := range with {
		if without[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(out, "Table 1 in wall clock (closure backend; PEA against no escape analysis; %d runs, %s)\n", runs, how)
	fmt.Fprintf(out, "%-12s %12s %12s | %9s %9s %9s | %9s %9s %9s\n", "program", "no-EA ns/op", "PEA ns/op",
		"speed %", "allocs %", "KB %", "paper spd", "paper al", "paper MB")
	var ratios, allocs, kbs []float64
	for _, n := range names {
		w, wo := with[n], without[n]
		nsW, nsWo := median(w.ns), median(wo.ns)
		speed := (nsWo/nsW - 1) * 100
		ad, kd := pctDelta(median(wo.allocs), median(w.allocs)), pctDelta(median(wo.kb), median(w.kb))
		ratios, allocs, kbs = append(ratios, nsWo/nsW), append(allocs, ad), append(kbs, kd)
		paper := fmt.Sprintf("%9s %9s %9s", "-", "-", "-")
		if row, ok := bench.PaperTable1[n]; ok {
			paper = fmt.Sprintf("%+9.1f %+9.1f %+9.1f", row.SpeedupD, row.AllocsD, row.MBDelta)
		}
		fmt.Fprintf(out, "%-12s %12.0f %12.0f | %+9.1f %+9.1f %+9.1f | %s\n", n, nsWo, nsW, speed, ad, kd, paper)
	}
	fmt.Fprintf(out, "%s\n%-12s %12s %12s | %+9.1f %+9.1f %+9.1f | geomean speed-up, mean deltas\n",
		strings.Repeat("-", 112), "suite", "", "", (geomean(ratios)-1)*100, mean(allocs), mean(kbs))
	return nil
}
