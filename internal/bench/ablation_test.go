package bench

import (
	"fmt"
	"strings"
	"testing"

	"pea/internal/bc"
	"pea/internal/build"
	"pea/internal/ea"
	"pea/internal/exec"
	"pea/internal/ir"
	"pea/internal/mj"
	"pea/internal/opt"
	"pea/internal/pea"
	"pea/internal/rt"
	"pea/internal/summary"
)

// Ablation quantifies the design choices DESIGN.md calls out, on the
// paper's running example and representative workloads:
//
//   - full:        Partial Escape Analysis as the VM compiles it: the
//     paper's, plus inter-procedural callee escape summaries (arguments
//     proven unobserved by non-inlined callees stay virtual);
//   - no-summaries: with pea.Config.CalleeNoEscape nil, the paper's §5.2
//     rule (every argument of a non-inlined call escapes);
//   - no-liveness: without the Figure 6a rule (objects never leave the
//     state at merges, so mixed merges always materialize);
//   - no-arrays:   without array virtualization;
//   - ea:          the flow-insensitive equi-escape-sets baseline (with
//     summaries, as the VM runs it);
//   - none:        no escape analysis.
type ablationVariant struct {
	Name        string
	Conf        pea.Config
	UseEA       bool // run the ea baseline instead of pea
	Disable     bool // run no analysis at all
	NoSummaries bool // leave pea.Config.CalleeNoEscape nil
}

// ablationVariants returns the standard variant set.
func ablationVariants() []ablationVariant {
	return []ablationVariant{
		{Name: "full"},
		{Name: "no-summaries", NoSummaries: true},
		{Name: "no-liveness", Conf: pea.Config{DisableAliasLiveness: true}},
		{Name: "no-arrays", Conf: pea.Config{DisableArrays: true}},
		{Name: "ea", UseEA: true},
		{Name: "none", Disable: true},
	}
}

// ablationResult is one (program, variant) measurement.
type ablationResult struct {
	Program string
	Variant string
	Allocs  int64
	Bytes   int64
	MonOps  int64
}

// ablationProgram is one subject program for the ablation study.
type ablationProgram struct {
	name   string
	source string
	entry  string // Class.method, int-returning, one int parameter
	arg    int64
	calls  int
}

func ablationPrograms() []ablationProgram {
	return []ablationProgram{
		{
			// The paper's running example: the liveness rule is what
			// keeps the cache-hit path allocation-free once getValue is
			// inlined into a caller that merges the branches.
			name: "cachekey",
			source: `
class Key {
	int idx;
	Key(int idx) { this.idx = idx; }
	boolean equalsKey(Key other) {
		synchronized (this) { return other != null && idx == other.idx; }
	}
}
class Cache { static Key cacheKey; static int cacheValue; }
class Main {
	static int getValue(int idx) {
		Key key = new Key(idx);
		if (key.equalsKey(Cache.cacheKey)) { return Cache.cacheValue; }
		Cache.cacheKey = key;
		Cache.cacheValue = idx * 31;
		return Cache.cacheValue;
	}
	static int run(int n) {
		int s = 0;
		for (int i = 0; i < n; i++) { s += getValue(i / 16); }
		return s;
	}
	static void main() { print(run(100)); }
}`,
			entry: "Main.run", arg: 400, calls: 3,
		},
		{
			// Constant-length array temporaries: the array-virtualization
			// switch is what removes them.
			name: "smallbuffers",
			source: `
class Main {
	static int run(int n) {
		int s = 0;
		for (int i = 0; i < n; i++) {
			int[] b = new int[4];
			b[0] = i;
			b[1] = i * 2;
			b[2] = b[0] + b[1];
			b[3] = b[2] - i;
			s += b[3];
		}
		return s;
	}
	static void main() { print(run(10)); }
}`,
			entry: "Main.run", arg: 500, calls: 3,
		},
		{
			// A callee far past the inliner's code budget that never
			// observes its ref parameter: only its summary keeps the
			// caller's Point virtual across the out-of-line call.
			name: "callheavy",
			source: `
class Point { int x; int y; Point(int x, int y) { this.x = x; this.y = y; } }
class Main {
	static int mix(Point p, int a) {
		int s = a;
		s = s + 1; s = s + 2; s = s + 3; s = s + 4; s = s + 5;
		s = s + 6; s = s + 7; s = s + 8; s = s + 9; s = s + 10;
		s = s * 3; s = s - 7; s = s + 11; s = s + 12; s = s + 13;
		s = s + 14; s = s + 15; s = s + 16; s = s + 17; s = s + 18;
		s = s + 19; s = s + 20; s = s + 21; s = s + 22; s = s + 23;
		s = s + 24; s = s + 25; s = s + 26; s = s + 27; s = s + 28;
		return s;
	}
	static int run(int n) {
		int s = 0;
		for (int i = 0; i < n; i++) {
			Point p = new Point(i, i * 2);
			s += mix(p, i) + p.x + p.y;
		}
		return s;
	}
	static void main() { print(run(10)); }
}`,
			entry: "Main.run", arg: 400, calls: 3,
		},
		{
			// Deep temporary chains (the factorie pattern): every
			// variant with scalar replacement wins here; "none" shows
			// the full cost.
			name: "tempchain",
			source: `
class Box { int v; Box(int v) { this.v = v; } int get() { return v; } }
class Main {
	static int run(int n) {
		int s = 0;
		for (int i = 0; i < n; i++) {
			Box a = new Box(i);
			Box b = new Box(a.get() + 1);
			Box c = new Box(b.get() * 2);
			s += c.get();
		}
		return s;
	}
	static void main() { print(run(10)); }
}`,
			entry: "Main.run", arg: 500, calls: 3,
		},
	}
}

// runAblation measures every (program, variant) pair. The compilation
// pipeline is identical across variants except for the analysis stage.
func runAblation() ([]ablationResult, error) {
	var out []ablationResult
	for _, ap := range ablationPrograms() {
		prog, err := mj.Compile(ap.source, "Main.main")
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", ap.name, err)
		}
		dot := strings.LastIndex(ap.entry, ".")
		m := prog.ClassByName(ap.entry[:dot]).MethodByName(ap.entry[dot+1:])
		sums := summary.Compute(prog, summary.Options{})
		for _, v := range ablationVariants() {
			g, err := build.Build(m)
			if err != nil {
				return nil, err
			}
			conf := v.Conf
			if !v.NoSummaries {
				conf.CalleeNoEscape = sums.ArgSafe
			}
			pipe := &opt.Pipeline{Phases: opt.PreEA(prog, nil)}
			if err := pipe.Run(g); err != nil {
				return nil, err
			}
			switch {
			case v.Disable:
			case v.UseEA:
				if _, err := ea.Run(g, conf); err != nil {
					return nil, err
				}
			default:
				if _, err := pea.Run(g, conf); err != nil {
					return nil, err
				}
			}
			if err := ir.Verify(g); err != nil {
				return nil, fmt.Errorf("ablation %s/%s: %w", ap.name, v.Name, err)
			}
			post := opt.Standard()
			if err := post.Run(g); err != nil {
				return nil, err
			}

			env := rt.NewEnv(prog, 7)
			env.MaxSteps = 200_000_000
			eng := &exec.Engine{Env: env}
			eng.Invoke = func(callee *bc.Method, args []rt.Value) (rt.Value, error) {
				cg, err := build.Build(callee)
				if err != nil {
					return rt.Value{}, err
				}
				return eng.Run(cg, args)
			}
			for c := 0; c < ap.calls; c++ {
				if _, err := eng.Run(g, []rt.Value{rt.IntValue(ap.arg)}); err != nil {
					return nil, fmt.Errorf("ablation %s/%s: %w", ap.name, v.Name, err)
				}
			}
			out = append(out, ablationResult{
				Program: ap.name,
				Variant: v.Name,
				Allocs:  env.Stats.Allocations,
				Bytes:   env.Stats.AllocatedBytes,
				MonOps:  env.Stats.MonitorOps,
			})
		}
	}
	return out, nil
}

// TestAblation asserts each design choice earns its keep.
func TestAblation(t *testing.T) {
	rs, err := runAblation()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs { // the table EXPERIMENTS.md quotes (-v)
		t.Logf("%-13s %-12s allocs %6d  bytes %7d  monitor ops %5d", r.Program, r.Variant, r.Allocs, r.Bytes, r.MonOps)
	}
	get := func(prog, variant string) ablationResult {
		for _, r := range rs {
			if r.Program == prog && r.Variant == variant {
				return r
			}
		}
		t.Fatalf("missing %s/%s", prog, variant)
		return ablationResult{}
	}

	// cachekey: full PEA allocates only on misses; disabling the
	// Figure 6a alias-liveness rule materializes at the loop-body merge
	// and loses most of the benefit; EA and none do not help at all.
	full := get("cachekey", "full")
	nolive := get("cachekey", "no-liveness")
	eaRes := get("cachekey", "ea")
	none := get("cachekey", "none")
	if full.Allocs >= none.Allocs/4 {
		t.Fatalf("cachekey full PEA too weak: %d vs %d", full.Allocs, none.Allocs)
	}
	if nolive.Allocs <= full.Allocs {
		t.Fatalf("alias-liveness rule has no effect: %d vs %d", nolive.Allocs, full.Allocs)
	}
	if eaRes.Allocs != none.Allocs {
		t.Fatalf("EA should not optimize the partial escape: %d vs %d", eaRes.Allocs, none.Allocs)
	}
	if full.MonOps != 0 || none.MonOps == 0 {
		t.Fatalf("lock elision wrong: full=%d none=%d", full.MonOps, none.MonOps)
	}

	// smallbuffers: array virtualization is the whole story.
	fullA := get("smallbuffers", "full")
	noArr := get("smallbuffers", "no-arrays")
	noneA := get("smallbuffers", "none")
	if fullA.Allocs != 0 {
		t.Fatalf("small constant arrays not virtualized: %d", fullA.Allocs)
	}
	if noArr.Allocs != noneA.Allocs {
		t.Fatalf("no-arrays variant should match baseline: %d vs %d", noArr.Allocs, noneA.Allocs)
	}

	// callheavy: the callee is past the inline budget and never observes
	// its ref argument, so its summary keeps the caller's allocation
	// virtual — without summaries PEA must materialize at the call.
	if r := get("callheavy", "full"); r.Allocs != 0 {
		t.Fatalf("callheavy full PEA left %d allocations", r.Allocs)
	}
	if get("callheavy", "no-summaries").Allocs == 0 {
		t.Fatal("callheavy PEA without summaries should materialize at the out-of-line call")
	}
	// On programs with no summary-shaped call sites summaries change
	// nothing.
	for _, prog := range []string{"cachekey", "smallbuffers", "tempchain"} {
		s, f := get(prog, "no-summaries"), get(prog, "full")
		if s.Allocs != f.Allocs {
			t.Fatalf("%s: summaries changed allocations %d vs %d", prog, f.Allocs, s.Allocs)
		}
	}

	// tempchain: every scalar-replacing variant removes all allocations.
	for _, v := range []string{"full", "no-liveness", "no-arrays", "ea"} {
		if r := get("tempchain", v); r.Allocs != 0 {
			t.Fatalf("tempchain %s: %d allocations left", v, r.Allocs)
		}
	}
	if get("tempchain", "none").Allocs == 0 {
		t.Fatal("baseline should allocate")
	}
}
