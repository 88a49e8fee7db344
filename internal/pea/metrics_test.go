package pea

import (
	"testing"

	"pea/internal/build"
	"pea/internal/check"
	"pea/internal/ir"
	"pea/internal/obs"
	"pea/internal/opt"
	"pea/internal/testprog"
)

// TestMetricsMatchResult runs PEA over every method of the whole test
// corpus with a metrics-attached sink and demands that the decision
// counters in the registry agree exactly with the Result the transformation
// reports: events are emitted at precisely the program points where the
// counters increment, never more, never less.
func TestMetricsMatchResult(t *testing.T) {
	for _, p := range testprog.Corpus() {
		t.Run(p.Name, func(t *testing.T) {
			for _, m := range p.Prog.Methods {
				g, err := build.Build(m)
				if err != nil {
					t.Fatalf("build %s: %v", m.QualifiedName(), err)
				}
				pre := &opt.Pipeline{
					Phases: []opt.Phase{
						&opt.Inliner{BuildGraph: build.Build, Program: p.Prog},
						opt.Canonicalize{},
						opt.SimplifyCFG{},
						opt.GVN{},
						opt.DCE{},
					},
					Check: check.Basic,
				}
				if err := pre.Run(g); err != nil {
					t.Fatalf("pre-opt %s: %v", m.QualifiedName(), err)
				}

				met := obs.NewMetrics()
				sink := obs.NewSink()
				sink.SetMetrics(met)
				res, err := Run(g, Config{Sink: sink})
				if err != nil {
					t.Fatalf("pea %s: %v\n%s", m.QualifiedName(), err, ir.Dump(g))
				}

				check := func(name string, counter string, want int) {
					if got := met.Counter(counter); got != int64(want) {
						t.Errorf("%s: metric %s = %d, but Result reports %d",
							m.QualifiedName(), counter, got, want)
					}
				}
				check("virtualized", obs.MetricVirtualized, res.VirtualizedAllocs)
				check("materialized", obs.MetricMaterialized, res.MaterializeSites)
				check("locks elided", obs.MetricLocksElided, res.ElidedMonitors)
				wantBail := 0
				if res.BailedOut {
					wantBail = 1
				}
				check("bailouts", obs.MetricPEABailouts, wantBail)
			}
		})
	}
}
