package check_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pea/internal/bc"
	"pea/internal/check"
	"pea/internal/obs"
	"pea/internal/testprog"
	"pea/internal/vm"
)

// materializes reports whether compiling m with vm.Compile on a PEA VM,
// strict sanitizer on, makes PEA insert at least one materialization — the
// predicate the committed repro under testdata/ was minimized against.
func materializes(p *bc.Program, m *bc.Method) bool {
	if bc.Verify(m) != nil {
		return false
	}
	met := obs.NewMetrics()
	machine := vm.New(p, vm.Options{EA: vm.EAPartial, CheckLevel: check.Strict, Sink: obs.NewSink(met)})
	defer machine.Close()
	if _, err := machine.Compile(m); err != nil {
		return false
	}
	return met.Counter(obs.KindMaterialize)+met.Counter(obs.KindMergeMaterialize) > 0
}

func TestReproRoundTrip(t *testing.T) {
	const seed = 7
	p := testprog.Generate(seed)
	m := p.Entry
	r := check.NewRepro(m, seed, "round trip")

	path := filepath.Join(t.TempDir(), "repro.json")
	if err := r.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := check.LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Method != m.QualifiedName() || loaded.Seed != seed {
		t.Fatalf("header changed: %+v", loaded)
	}

	// Apply onto a fresh instance of the same generated program.
	fresh := testprog.Generate(seed)
	fm, err := loaded.Apply(fresh.Prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(fm.Code) != len(m.Code) {
		t.Fatalf("code length changed: %d -> %d", len(m.Code), len(fm.Code))
	}
	for i := range m.Code {
		a, b := m.Code[i], fm.Code[i]
		if a.Op != b.Op || a.A != b.A || a.Cond != b.Cond || a.Kind != b.Kind {
			t.Fatalf("pc %d: %v -> %v", i, a, b)
		}
		if qual(a.Class)+qual2(a.Field)+qual3(a.Method) != qual(b.Class)+qual2(b.Field)+qual3(b.Method) {
			t.Fatalf("pc %d operands diverge: %v -> %v", i, a, b)
		}
	}
}

func qual(c *bc.Class) string {
	if c == nil {
		return ""
	}
	return c.Name
}
func qual2(f *bc.Field) string {
	if f == nil {
		return ""
	}
	return f.QualifiedName()
}
func qual3(m *bc.Method) string {
	if m == nil {
		return ""
	}
	return m.QualifiedName()
}

// TestCommittedReprosReplay replays every minimized repro committed under
// testdata/: the recorded body must still apply cleanly to the generated
// program it came from, verify, and still trip its predicate.
func TestCommittedReprosReplay(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed repros under testdata/")
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			r, err := check.LoadRepro(path)
			if err != nil {
				t.Fatal(err)
			}
			p := testprog.Generate(int64(r.Seed))
			m, err := r.Apply(p.Prog)
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(r.Note, "materialize") {
				t.Fatalf("unknown repro predicate in note %q", r.Note)
			}
			if !materializes(p.Prog, m) {
				t.Fatalf("repro %s no longer reproduces: PEA materializes nothing", path)
			}
		})
	}
}

// TestRegenRepro regenerates testdata/materialize-min.json when
// PEA_REGEN_REPRO=1: it hunts for a generated program whose entry method
// makes PEA materialize, delta-debugs the body down while the predicate
// holds, and writes the result. Committed output keeps the replay test
// honest across pipeline changes.
func TestRegenRepro(t *testing.T) {
	if os.Getenv("PEA_REGEN_REPRO") == "" {
		t.Skip("set PEA_REGEN_REPRO=1 to regenerate testdata repros")
	}
	for seed := int64(1); seed < 500; seed++ {
		p := testprog.Generate(seed)
		m := p.Entry
		if !materializes(p.Prog, m) {
			continue
		}
		orig := len(m.Code)
		n := check.Minimize(m, func() bool { return materializes(p.Prog, m) })
		t.Logf("seed %d: %d -> %d instructions (%d eliminated)", seed, orig, len(m.Code), n)
		r := check.NewRepro(m, uint64(seed),
			"minimized: PEA must materialize at least once compiling this body")
		if err := r.Save(filepath.Join("testdata", "materialize-min.json")); err != nil {
			t.Fatal(err)
		}
		return
	}
	t.Fatal("no materializing seed found")
}
