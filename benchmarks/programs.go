// Package benchmarks is peaperf, the repository's one wall-clock benchmark:
// five workloads over frozen MiniJava inputs that between them exercise
// steady-state execution (with and without Partial Escape Analysis), the
// compile path, and the multi-tenant server, each reporting the same
// end-to-end metrics plus a per-layer attribution taken from outside the
// layers' public functions. See README.md for the catalogue.
package benchmarks

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"pea/internal/bench"
)

const (
	manifestName   = "MANIFEST.json"
	manifestSchema = "peaperf-programs/1"
	// refStride is the spacing, in guest ops, of the frozen interpreter
	// checkpoints; every op count the workloads use is a multiple of it.
	refStride = 10
	// refOps is how many ops gen interprets per steady program: the
	// full-scale run needs 50 warm-up + 8×15×20 timed ops.
	refOps = 2600
)

// Program is one frozen input: a MiniJava source file plus how to drive it.
type Program struct {
	Name   string `json:"name"`
	File   string `json:"file"`
	SHA256 string `json:"sha256"`
	// Setup, when set, is a static method called once before the first op
	// (Store.setup of the generated Table-1 programs).
	Setup string `json:"setup,omitempty"`
	// Op is the static method one guest operation invokes.
	Op string `json:"op"`
	// Seed seeds the guest PRNG. It is part of the frozen input — the
	// benchmark's -seed never reaches the guest — so outputs and guest
	// allocation counts repeat exactly on every run.
	Seed uint64 `json:"seed"`
	// Ref holds the interpreter-only VM's rolling output hash after every
	// refStride ops (hex), recorded by gen for the steady programs so
	// that every timed op is checked, not only the ones the set-up can
	// afford to interpret again.
	Ref []string `json:"ref,omitempty"`

	Source string `json:"-"`
}

// Manifest indexes the frozen inputs.
type Manifest struct {
	Schema    string    `json:"schema"`
	RefStride int       `json:"ref_stride"`
	Programs  []Program `json:"programs"`

	byName map[string]*Program
}

// The program sets.
var (
	// steadySet is run by steady-pea and steady-noea; README.md records
	// why each member is there.
	steadySet = []string{
		"factorie",    // most temporaries; the paper's largest speed-up (+33 %)
		"specs",       // -72 % allocations, array- and work-heavy
		"specjbb2005", // elidable and global locks beside allocation
		"tomcat",      // lock-dominated, few removable allocations
		"fop",         // lock elision with little other work
		"sunflow",     // mid-range allocation removal under heavy work
		"scalac",      // mid-range allocation removal
		"jython",      // the paper's one regression: many partial-escape sites
		"avrora",      // control: polymorphic calls defeat inlining
		"luindex",     // control: pure work and escaping arrays
		"callheavy",   // non-inlined calls; moves when summaries are on
		"trycatch",    // PEA across exception handler edges
	}
	// exampleSet are the hand-written programs copied from examples/.
	exampleSet = []string{"callheavy", "trycatch", "pairloop", "cachekey", "specdeopt"}
	// tenantSet is posted to the server by serve-warm; serve-cold uses
	// the same programs as templates.
	tenantSet = []string{"loadsource", "callheavy", "trycatch", "pairloop", "cachekey", "specdeopt", "factorie-small", "avrora-small"}
)

const (
	table1Setup = "Store.setup"
	table1Op    = "Bench.iteration"
	mainOp      = "Main.main"
	// tenantOps is Ops of the small generated tenants: one request (three
	// runs of Main.main) crosses peaserve's default threshold in Bench.op
	// but stays near a millisecond.
	tenantOps = 60
)

// compileSet is the 27 Table-1 programs plus the five examples.
func (m *Manifest) compileSet() ([]*Program, error) {
	var out []*Program
	for i := range m.Programs {
		if p := &m.Programs[i]; p.Setup == table1Setup {
			out = append(out, p)
		}
	}
	examples, err := m.named(exampleSet)
	return append(out, examples...), err
}

func (m *Manifest) named(names []string) ([]*Program, error) {
	out := make([]*Program, len(names))
	for i, n := range names {
		p := m.byName[n]
		if p == nil {
			return nil, fmt.Errorf("benchmarks: program %q is not in the manifest", n)
		}
		out[i] = p
	}
	return out, nil
}

func (m *Manifest) steady() ([]*Program, error) { return m.named(steadySet) }

func fileHash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// nameSeed derives a program's guest PRNG seed from its name (FNV-1a).
func nameSeed(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	return h | 1
}

// Generate writes the frozen inputs into dir: one .mj file per program from
// bench.Suites(), bench.LoadSource and examplesDir, and MANIFEST.json with a
// hash per file and the interpreter checkpoints of the steady programs. It is
// run once, by hand; Load refuses any later drift.
func Generate(dir, examplesDir string, logf func(string, ...any)) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	m := &Manifest{Schema: manifestSchema, RefStride: refStride}
	add := func(name, src, setup, op string) {
		m.Programs = append(m.Programs, Program{
			Name: name, File: name + ".mj", SHA256: fileHash([]byte(src)),
			Setup: setup, Op: op, Seed: nameSeed(name), Source: src,
		})
	}
	small := map[string]bench.WorkloadSpec{}
	for _, w := range bench.Suites() {
		add(w.Name, w.Source(), table1Setup, table1Op)
		if w.Name == "factorie" || w.Name == "avrora" {
			w.Ops = tenantOps
			small[w.Name] = w
		}
	}
	for _, name := range exampleSet {
		src, err := os.ReadFile(filepath.Join(examplesDir, name+".mj"))
		if err != nil {
			return err
		}
		add(name, string(src), "", mainOp)
	}
	add("loadsource", bench.LoadSource, "", mainOp)
	for _, name := range []string{"factorie", "avrora"} {
		w := small[name]
		add(name+"-small", w.Source(), "", mainOp)
	}
	m.index()
	steady, err := m.steady()
	if err != nil {
		return err
	}
	for _, p := range steady {
		logf("interpreting %d ops of %s for the reference checkpoints", refOps, p.Name)
		g, err := newGuest(p, interpreterOptions(p))
		if err != nil {
			return err
		}
		for i := 0; i < refOps; i++ {
			if err := g.step(); err != nil {
				return fmt.Errorf("benchmarks: reference run of %s: %w", p.Name, err)
			}
			if g.ops%refStride == 0 {
				p.Ref = append(p.Ref, fmt.Sprintf("%016x", g.hash))
			}
		}
		g.close()
	}
	for i := range m.Programs {
		p := &m.Programs[i]
		if err := os.WriteFile(filepath.Join(dir, p.File), []byte(p.Source), 0o644); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(m, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, manifestName), append(data, '\n'), 0o644)
}

func (m *Manifest) index() {
	m.byName = make(map[string]*Program, len(m.Programs))
	for i := range m.Programs {
		m.byName[m.Programs[i].Name] = &m.Programs[i]
	}
}

// Load reads the manifest and every program file under dir, refusing a
// missing file or a hash mismatch: the workloads are whatever gen froze, not
// whatever internal/bench generates today.
func Load(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("benchmarks: %s: %w", manifestName, err)
	}
	if m.Schema != manifestSchema || m.RefStride != refStride {
		return nil, fmt.Errorf("benchmarks: %s has schema %q stride %d, want %q stride %d",
			manifestName, m.Schema, m.RefStride, manifestSchema, refStride)
	}
	for i := range m.Programs {
		p := &m.Programs[i]
		src, err := os.ReadFile(filepath.Join(dir, p.File))
		if err != nil {
			return nil, err
		}
		if got := fileHash(src); got != p.SHA256 {
			return nil, fmt.Errorf("benchmarks: %s has hash %s, manifest froze %s (rerun peaperf gen only to redefine the benchmark)",
				p.File, got, p.SHA256)
		}
		p.Source = string(src)
	}
	m.index()
	return m, nil
}
