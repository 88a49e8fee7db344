package vm

import (
	"path/filepath"
	"testing"

	"pea/internal/bc"
	"pea/internal/exec/closure"
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
	var units []unit
	var err error
	for _, prog := range frozenPrograms(b) {
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

// frozenPrograms compiles every frozen benchmark program from source. The
// benchmarks here only read them.
func frozenPrograms(b *testing.B) []*bc.Program {
	files, err := filepath.Glob("../../benchmarks/programs/*.mj")
	if err != nil || len(files) == 0 {
		b.Fatalf("no benchmark programs (%v)", err)
	}
	progs := make([]*bc.Program, len(files))
	for i, f := range files {
		progs[i] = loadExample(b, f)
	}
	return progs
}

// BenchmarkCompileFrozen is one vm.Compile plus closure lowering of every
// method of the frozen benchmark programs under Partial Escape Analysis:
// the work the compile workload times when it recompiles installed methods,
// over every method rather than the installed ones, so that its allocation
// count is exact and independent of warm-up.
func BenchmarkCompileFrozen(b *testing.B) {
	type unit struct {
		machine *VM
		m       *bc.Method
	}
	var units []unit
	for _, prog := range frozenPrograms(b) {
		machine := New(prog, Options{EA: EAPartial, Interpret: true})
		b.Cleanup(machine.Close)
		for _, m := range prog.Methods {
			if len(m.Code) > 0 {
				units = append(units, unit{machine, m})
			}
		}
	}
	backend := closure.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			g, err := u.machine.Compile(u.m)
			if err != nil {
				b.Fatalf("%s: %v", u.m.QualifiedName(), err)
			}
			if _, err := backend.Compile(g); err != nil {
				b.Fatalf("lowering %s: %v", u.m.QualifiedName(), err)
			}
		}
	}
}
