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
// corpus with a metrics-attached sink and demands that the registry's
// per-kind decision counts agree exactly with the Result the transformation
// reports: events are emitted at precisely the program points where the
// Result's counters increment, never more, never less.
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

				check := func(name string, got int64, want int) {
					if got != int64(want) {
						t.Errorf("%s: %s events = %d, but Result reports %d",
							m.QualifiedName(), name, got, want)
					}
				}
				check("virtualize", met.Counter(obs.KindVirtualize), res.VirtualizedAllocs)
				check("materialize+merge_materialize",
					met.Counter(obs.KindMaterialize)+met.Counter(obs.KindMergeMaterialize), res.MaterializeSites)
				check("lock_elide", met.Counter(obs.KindLockElide), res.ElidedMonitors)
				wantBail := 0
				if res.BailedOut {
					wantBail = 1
				}
				check("pea_bailout", met.Counter(obs.KindPEABailout), wantBail)
			}
		})
	}
}
