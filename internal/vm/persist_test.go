package vm

import (
	"path/filepath"
	"strings"
	"testing"

	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/mj"
)

// persistSrc exercises the interesting artifact shapes: allocation that
// scalar-replaces, a partial escape to a static, calls that inline, and a
// hot loop — so persisted graphs carry virtual object states, field
// references, and devirtualized call sites, not just arithmetic.
const persistSrc = `
class Point {
	int x;
	int y;
	Point(int x, int y) {
		this.x = x;
		this.y = y;
	}
	int dist2() {
		return this.x * this.x + this.y * this.y;
	}
}
class Main {
	static Point sink;
	static int work(int i) {
		Point p = new Point(i, i + 1);
		if (i % 13 == 0) {
			Main.sink = p;
		}
		return p.dist2();
	}
	static void main() {
		int acc = 0;
		int i = 0;
		while (i < 200) {
			acc = acc + Main.work(i);
			i = i + 1;
		}
		print(acc);
	}
}
`

// runPersist links persistSrc from scratch (a fresh *bc.Program, as a new
// process would have) and runs it to completion on a VM backed by the
// given store.
func runPersist(t *testing.T, opts Options) (output []int64, st broker.Stats) {
	t.Helper()
	prog, err := mj.Compile(persistSrc, "Main.main")
	if err != nil {
		t.Fatal(err)
	}
	machine := New(prog, opts)
	defer machine.Close()
	if _, err := machine.Run(); err != nil {
		t.Fatal(err)
	}
	machine.DrainJIT()
	for m, cerr := range machine.FailedCompilations() {
		t.Fatalf("compile of %s failed: %v", m.QualifiedName(), cerr)
	}
	return append([]int64(nil), machine.Env.Output...), machine.Broker().Stats()
}

// TestWarmRestartRecompilesNothing is the tentpole's end-to-end proof: a
// "restarted process" (fresh link, fresh VM, fresh memory cache, same
// store directory) replays every artifact from disk — zero pipeline runs —
// and computes the same answer.
func TestWarmRestartRecompilesNothing(t *testing.T) {
	for _, mode := range []EAMode{EAOff, EAPartial} {
		t.Run(mode.String(), func(t *testing.T) {
			dir := t.TempDir()
			store1, err := broker.NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			cold, coldStats := runPersist(t, withJIT(t, Options{EA: mode, CompileThreshold: 5, CheckLevel: check.Basic},
				broker.Options{Store: store1}))
			if coldStats.Compiled == 0 {
				t.Fatal("cold run compiled nothing; test is vacuous")
			}
			if ws := store1.Stats(); ws.Writes != coldStats.Compiled {
				t.Fatalf("wrote %d artifacts for %d compiles", ws.Writes, coldStats.Compiled)
			}

			store2, err := broker.NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			warm, warmStats := runPersist(t, withJIT(t, Options{EA: mode, CompileThreshold: 5, CheckLevel: check.Basic},
				broker.Options{Store: store2}))
			if warmStats.Compiled != 0 {
				t.Fatalf("warm restart ran the pipeline %d times, want 0", warmStats.Compiled)
			}
			if warmStats.DiskHits != coldStats.Compiled {
				t.Fatalf("disk hits = %d, want %d", warmStats.DiskHits, coldStats.Compiled)
			}
			if len(warm) != len(cold) {
				t.Fatalf("output length %d vs %d", len(warm), len(cold))
			}
			for i := range warm {
				if warm[i] != cold[i] {
					t.Fatalf("output[%d] = %d, cold run printed %d", i, warm[i], cold[i])
				}
			}
			if rej := store2.Stats().Rejected; rej != 0 {
				t.Fatalf("warm restart rejected %d artifacts", rej)
			}
		})
	}
}

// TestStaleStoreEntriesIgnoredAfterEdit: edit the program, restart — the
// old artifacts' keys no longer match (the content fingerprint moved), so
// the VM recompiles everything instead of replaying stale code.
func TestStaleStoreEntriesIgnoredAfterEdit(t *testing.T) {
	dir := t.TempDir()
	store1, err := broker.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, coldStats := runPersist(t, withJIT(t, Options{EA: EAPartial, CompileThreshold: 5, CheckLevel: check.Basic},
		broker.Options{Store: store1}))

	edited := strings.Replace(persistSrc, "i % 13", "i % 7", 1)
	prog, err := mj.Compile(edited, "Main.main")
	if err != nil {
		t.Fatal(err)
	}
	store2, err := broker.NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	machine := New(prog, withJIT(t, Options{EA: EAPartial, CompileThreshold: 5, CheckLevel: check.Basic},
		broker.Options{Store: store2}))
	defer machine.Close()
	if _, err := machine.Run(); err != nil {
		t.Fatal(err)
	}
	st := machine.Broker().Stats()
	if st.DiskHits != 0 {
		t.Fatalf("edited program replayed %d stale artifacts", st.DiskHits)
	}
	if st.Compiled != coldStats.Compiled {
		t.Fatalf("edited program compiled %d methods, original %d", st.Compiled, coldStats.Compiled)
	}
}

// TestSharedCacheRebindsAcrossLinks: two VMs over independent links of the
// same source share one broker's in-memory cache. Content-addressed keys
// make the second VM hit artifacts whose graphs are bound to the first
// VM's *bc.Method instances; the install path must rebind them onto its
// own program rather than run foreign pointers or recompile.
func TestSharedCacheRebindsAcrossLinks(t *testing.T) {
	opts := Options{EA: EAPartial, CompileThreshold: 5, JIT: sharedBroker(t), CheckLevel: check.Basic}
	out1, st1 := runPersist(t, opts)
	if st1.Compiled == 0 {
		t.Fatal("first VM compiled nothing; test is vacuous")
	}
	out2, st2 := runPersist(t, opts)
	if st2.Compiled != st1.Compiled {
		t.Fatalf("second link recompiled %d methods despite shared cache", st2.Compiled-st1.Compiled)
	}
	if st2.CacheHits == st1.CacheHits {
		t.Fatal("second link never hit the shared cache")
	}
	if len(out1) != len(out2) || out1[0] != out2[0] {
		t.Fatalf("rebound artifacts computed %v, original %v", out2, out1)
	}
}

// TestSharedBrokerServesTwoTenants: the multi-tenant shape peaserve uses —
// one broker (workers, cache, store) serving VMs with per-tenant hooks.
func TestSharedBrokerServesTwoTenants(t *testing.T) {
	store, err := broker.NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shared := broker.New(broker.Options{
		Cache: broker.NewCache(),
		Store: store,
		Check: check.Basic,
	})
	defer shared.Close()

	var outs [][]int64
	for tenant := 0; tenant < 2; tenant++ {
		out, _ := runPersist(t, Options{
			EA: EAPartial, CompileThreshold: 5, JIT: shared, CheckLevel: check.Basic,
		})
		outs = append(outs, out)
	}
	st := shared.Stats()
	// Tenant 1 compiled; tenant 2's fresh link resolved from the shared
	// tiers (memory via rebind, or disk) without one pipeline run.
	if st.Compiled == 0 {
		t.Fatal("shared broker never compiled")
	}
	if st.CacheHits+st.DiskHits == 0 {
		t.Fatal("second tenant reused nothing from the shared tiers")
	}
	if st.Compiled != st.Installed-st.CacheHits-st.DiskHits {
		t.Logf("broker stats: %+v", st) // informational; exact split depends on timing
	}
	if outs[0][0] != outs[1][0] {
		t.Fatalf("tenants disagree: %v vs %v", outs[0], outs[1])
	}
	// Close is per-tenant and must not tear down the shared broker: a
	// third tenant still gets service.
	out, st3 := runPersist(t, Options{
		EA: EAPartial, CompileThreshold: 5, JIT: shared, CheckLevel: check.Basic,
	})
	if st3.Compiled != st.Compiled {
		t.Fatalf("third tenant recompiled: %d vs %d", st3.Compiled, st.Compiled)
	}
	if out[0] != outs[0][0] {
		t.Fatalf("third tenant output %v, want %v", out, outs[0])
	}
}

// TestSanitizeHostileNames: crash-repro and flight-dump filenames embed
// method names that hostile tenant programs choose; the sanitized stem
// must stay inside the crash directory whatever the input.
func TestSanitizeHostileNames(t *testing.T) {
	hostile := []string{
		"../../../../etc/passwd",
		"..\\..\\windows\\system32",
		"a/b/c.d",
		"name with spaces and $(rm -rf ~)",
		"nul\x00byte",
		".",
		"..",
		"",
		strings.Repeat("x", 500),
		strings.Repeat("x", 499) + "y", // differs only past the truncation point
	}
	seen := make(map[string]string)
	for _, name := range hostile {
		s := sanitizeName(name)
		if s == "" {
			t.Errorf("%q: sanitized to empty stem", name)
		}
		if len(s) > 200 {
			t.Errorf("%q: stem length %d exceeds filesystem headroom", name, len(s))
		}
		if strings.ContainsAny(s, "/\\\x00") || strings.Contains(s, "..") {
			t.Errorf("%q: unsafe stem %q", name, s)
		}
		if filepath.Base(filepath.Join("dir", s)) != s {
			t.Errorf("%q: stem %q escapes its directory", name, s)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("%q and %q collide on stem %q", name, prev, s)
		}
		seen[s] = name
	}
}
