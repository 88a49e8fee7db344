package vm

import (
	"path/filepath"
	"testing"

	"pea/internal/bc"
	"pea/internal/ir"
	"pea/internal/obs"
	"pea/internal/pea"
)

// BenchmarkPEA times pea.Run alone over the pre-PEA graph of every method of
// the frozen benchmark programs, with the summary provider the VM hands it.
// Each graph is compiled once through the VM's pipeline and captured at its
// "inlined" stage, the input of the escape-analysis phase; every iteration
// clones the graphs through the artifact codec outside the timer, so only
// the analysis and its allocations are measured.
func BenchmarkPEA(b *testing.B) {
	type unit struct {
		prog    *bc.Program
		payload []byte
		conf    pea.Config
	}
	files, err := filepath.Glob("../../benchmarks/programs/*.mj")
	if err != nil || len(files) == 0 {
		b.Fatalf("no benchmark programs (%v)", err)
	}
	var units []unit
	for _, f := range files {
		prog := loadExample(b, f)
		var payload []byte
		sink := obs.NewSink(obs.FuncBackend(func(*obs.Event) {}))
		sink.OnSnapshot(func(phase, _ string, g *ir.Graph) {
			if phase == "inlined" {
				if payload, err = ir.EncodeJSON(g); err != nil {
					b.Fatal(err)
				}
			}
		})
		machine := New(prog, Options{EA: EAPartial, Interpret: true, Sink: sink})
		b.Cleanup(machine.Close)
		for _, m := range prog.Methods {
			if len(m.Code) == 0 {
				continue
			}
			payload = nil
			if _, err := machine.Compile(m); err != nil {
				b.Fatalf("%s: %v", m.QualifiedName(), err)
			}
			units = append(units, unit{prog, payload, pea.Config{CalleeNoEscape: machine.calleeNoEscape}})
		}
	}
	graphs := make([]*ir.Graph, len(units))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for k, u := range units {
			if graphs[k], err = ir.DecodeJSON(u.payload, u.prog); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		for k, u := range units {
			if _, err := pea.Run(graphs[k], u.conf); err != nil {
				b.Fatal(err)
			}
		}
	}
}
