package vm

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pea/internal/bc"
	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/ir"
	"pea/internal/obs"
	"pea/internal/rt"
	"pea/internal/summary"
	"pea/internal/testprog"
)

const graphsGolden = "testdata/graphs.sha256"

// goldenProgram is one corpus entry of the graph-identity golden: a linked
// program and the interpreted calls that give it a profile.
type goldenProgram struct {
	name string
	prog *bc.Program
	warm func(machine *VM)
}

func goldenCorpus(t *testing.T) []goldenProgram {
	t.Helper()
	var out []goldenProgram
	for _, dir := range []string{"../../benchmarks/programs", "../../examples"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.mj"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no programs under %s (%v)", dir, err)
		}
		sort.Strings(files)
		for _, f := range files {
			out = append(out, goldenProgram{
				name: filepath.Base(filepath.Dir(f)) + "/" + strings.TrimSuffix(filepath.Base(f), ".mj"),
				prog: loadExample(t, f),
				// A program that traps still leaves a profile behind.
				warm: func(machine *VM) { _, _ = machine.Run() },
			})
		}
	}
	for _, p := range testprog.Corpus() {
		out = append(out, goldenProgram{name: "testprog/" + p.Name, prog: p.Prog, warm: func(machine *VM) {
			for _, args := range p.ArgSets {
				vals := make([]rt.Value, len(args))
				for i, a := range args {
					vals[i] = rt.IntValue(a)
				}
				_, _ = machine.Call(p.Entry, vals)
			}
		}})
	}
	return out
}

// graphHashes compiles every method of every corpus program and returns one
// "<sha256 of ir.Dump>  <program> <method> <variant>" line per graph. The
// variants are the three escape-analysis modes without speculation and —
// under PEA, where the interpreted warm-up left a profile — the speculative
// compile and the OSR compile of the method's first loop header that took a
// back edge.
func graphHashes(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, gp := range goldenCorpus(t) {
		for _, opts := range []Options{{EA: EAPartial}, {EA: EAFlowInsensitive}, {EA: EAOff}} {
			opts.Interpret = true
			machine := New(gp.prog, opts)
			record := func(m *bc.Method, variant string, spec bool, entryBCI int) {
				sum := "compile error"
				if g, err := machine.compileEntry(m, spec, entryBCI); err == nil {
					sum = fmt.Sprintf("%x", sha256.Sum256([]byte(ir.Dump(g))))
				}
				lines = append(lines, fmt.Sprintf("%s  %s %s %s", sum, gp.name, m.QualifiedName(), variant))
			}
			partial := opts.EA == EAPartial
			if partial {
				gp.warm(machine)
			}
			for _, m := range gp.prog.Methods {
				if len(m.Code) == 0 {
					continue
				}
				record(m, opts.EA.String(), false, broker.NoOSR)
				if !partial || machine.Interp.Profile.Invocations(m) == 0 {
					continue
				}
				record(m, "pea+spec", true, broker.NoOSR)
				for pc := range m.Code {
					if machine.Interp.Profile.BackEdges(m, pc) > 0 {
						record(m, fmt.Sprintf("pea+osr@%d", pc), false, pc)
						break
					}
				}
			}
			machine.Close()
		}
	}
	return lines
}

// TestGraphIdentityGolden pins every graph the compiler emits over the
// benchmark programs, the examples and the testprog corpus: a change that
// claims to leave emitted code alone (a faster phase, a cheaper analysis)
// must pass it unmodified; a change that means to alter a graph regenerates
// the file with `go test ./internal/vm -run TestGraphIdentityGolden -update`
// and reviews the diff.
func TestGraphIdentityGolden(t *testing.T) {
	got := strings.Join(graphHashes(t), "\n") + "\n"
	if *update {
		if err := os.WriteFile(graphsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(graphsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantSet := make(map[string]bool)
	for _, line := range strings.Split(string(want), "\n") {
		wantSet[line] = true
	}
	shown := 0
	for _, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		if !wantSet[line] {
			if shown++; shown <= 20 {
				t.Errorf("graph differs from %s: %s", graphsGolden, line[strings.Index(line, "  ")+2:])
			}
		}
	}
	t.Fatalf("%d graphs differ from the committed golden (or the corpus changed); rerun with -update only if the change is meant to alter emitted code", shown)
}

// TestCompileBuildsOneDomTreePerAnalysis pins what a compile pays for
// control-flow analysis with the sanitizer off: one dominator tree per GVN
// run and one for PEA's block order — none for DCE, the canonicalizer, the
// inliner or a checker that is off. A compile that asks for the program's
// escape summaries also pays for the trees the whole-program summary
// analysis builds, once; those are counted apart, by running the analysis
// alone.
func TestCompileBuildsOneDomTreePerAnalysis(t *testing.T) {
	if check.Effective(check.Off) != check.Off {
		t.Skip("PEA_CHECK floors the sanitizer; strict checking builds dominator trees of its own")
	}
	for _, p := range testprog.Corpus() {
		before := ir.DomTreesBuilt()
		summary.Compute(p.Prog, summary.Options{})
		summaryTrees := ir.DomTreesBuilt() - before
		for _, mode := range []EAMode{EAPartial, EAOff} {
			metrics := obs.NewMetrics()
			sink := obs.NewSink()
			sink.SetMetrics(metrics)
			machine := New(p.Prog, Options{EA: mode, Interpret: true, Sink: sink})
			before := ir.DomTreesBuilt()
			if _, err := machine.Compile(p.Entry); err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			want := metrics.Phase("gvn").Count
			if mode == EAPartial {
				want++
			}
			if metrics.Counter(obs.KindSummary) > 0 {
				want += summaryTrees
			}
			if got := ir.DomTreesBuilt() - before; got != want {
				t.Errorf("%s under %v: %d dominator trees built, want %d (%d GVN runs, summaries asked for %d times)",
					p.Name, mode, got, want, metrics.Phase("gvn").Count, metrics.Counter(obs.KindSummary))
			}
			machine.Close()
		}
	}
}

// BenchmarkCompilePipeline is one vm.Compile of every method of the testprog
// corpus under Partial Escape Analysis: the whole pipeline, allocations
// included, on inputs small enough for CI's single-iteration smoke.
func BenchmarkCompilePipeline(b *testing.B) {
	type unit struct {
		machine *VM
		m       *bc.Method
	}
	var units []unit
	for _, p := range testprog.Corpus() {
		machine := New(p.Prog, Options{EA: EAPartial, Interpret: true})
		b.Cleanup(machine.Close)
		for _, m := range p.Prog.Methods {
			if len(m.Code) > 0 {
				units = append(units, unit{machine, m})
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, u := range units {
			if _, err := u.machine.Compile(u.m); err != nil {
				b.Fatal(err)
			}
		}
	}
}
