package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"pea/internal/bench"
	"pea/internal/check"
	"pea/internal/mj"
	"pea/internal/vm"
)

const tenantSrc = `
class Box {
	int v;
	Box(int v) {
		this.v = v;
	}
	int get() {
		return this.v;
	}
}
class Main {
	static Box kept;
	static int f(int i) {
		Box b = new Box(i * 2);
		if (i % 11 == 0) {
			Main.kept = b;
		}
		return b.get();
	}
	static void main() {
		int acc = 0;
		int i = 0;
		while (i < 120) {
			acc = acc + Main.f(i);
			i = i + 1;
		}
		print(acc);
	}
}
`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.CompileThreshold == 0 {
		opts.CompileThreshold = 5
	}
	if opts.CheckLevel == 0 {
		opts.CheckLevel = check.Basic
	}
	opts.EA = vm.EAPartial
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postRun(t *testing.T, url, source string, runs int) (*http.Response, RunResponse) {
	t.Helper()
	body, _ := json.Marshal(RunRequest{Source: source, Runs: runs})
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rr RunResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
			t.Fatal(err)
		}
	}
	return resp, rr
}

// tryRun is postRun for goroutines other than the test's own: any failure
// comes back as an error.
func tryRun(url, source string, runs int) (RunResponse, error) {
	var rr RunResponse
	body, _ := json.Marshal(RunRequest{Source: source, Runs: runs})
	resp, err := http.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return rr, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return rr, fmt.Errorf("POST /run: %s", resp.Status)
	}
	return rr, json.NewDecoder(resp.Body).Decode(&rr)
}

func getStats(t *testing.T, url string) StatsResponse {
	t.Helper()
	resp, err := http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRunEndToEnd(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, rr := postRun(t, ts.URL, tenantSrc, 2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	if len(rr.Output) != 2 || rr.Output[0] != rr.Output[1] {
		t.Fatalf("output = %v, want two equal values", rr.Output)
	}
	if rr.CompiledMethods == 0 || rr.PipelineCompiles == 0 {
		t.Fatalf("hot methods never compiled: %+v", rr)
	}
	if rr.FailedCompiles != 0 {
		t.Fatalf("%d compiles failed", rr.FailedCompiles)
	}
}

func TestBadRequestsRejected(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxSourceBytes: 4096, MaxRuns: 4})
	cases := []struct {
		name   string
		body   string
		status int
	}{
		{"syntax-error", `{"source": "class Main {", "runs": 1}`, http.StatusBadRequest},
		{"not-json", `this is not json`, http.StatusBadRequest},
		{"too-many-runs", fmt.Sprintf(`{"source": %q, "runs": 99}`, tenantSrc), http.StatusBadRequest},
		{"oversized", `{"source": "` + strings.Repeat("x", 8192) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status %s, want %d", resp.Status, tc.status)
			}
		})
	}
	if got := s.badSource.Load(); got != int64(len(cases)) {
		t.Fatalf("rejected counter = %d, want %d", got, len(cases))
	}
	// The server is still healthy after the abuse.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after bad requests: %v %v", resp, err)
	}
	resp.Body.Close()
}

// TestDeeplyNestedSourceRejected: a source of 300 000 nested parentheses —
// under the default 1 MiB source limit, and a fatal stack overflow in the
// parser before the front end bounded nesting — is a compile error (400),
// and the server goes on serving.
func TestDeeplyNestedSourceRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	deep := "class Main { static void main() { print(" + strings.Repeat("(", 300_000) +
		"1" + strings.Repeat(")", 300_000) + "); } }"
	resp, _ := postRun(t, ts.URL, deep, 1)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("deeply nested source: status %s, want 400", resp.Status)
	}
	if resp, rr := postRun(t, ts.URL, tenantSrc, 1); resp.StatusCode != http.StatusOK || len(rr.Output) != 1 {
		t.Fatalf("next request: status %s, output %v", resp.Status, rr.Output)
	}
}

// TestTenantsShareCompiledArtifacts: tenants posting the same program share
// the broker's cache — the pipeline runs once per method, not once per
// tenant: after one tenant has paid for the compiles, every concurrent
// tenant's fresh VM takes its code out of the cache at first call. Run
// under -race in CI.
func TestTenantsShareCompiledArtifacts(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	if resp, _ := postRun(t, ts.URL, tenantSrc, 2); resp.StatusCode != http.StatusOK {
		t.Fatalf("first tenant: %s", resp.Status)
	}
	first := getStats(t, ts.URL)
	if first.Broker.Compiled == 0 {
		t.Fatal("nothing compiled")
	}

	const tenants = 8
	var wg sync.WaitGroup
	errs := make(chan string, tenants)
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(RunRequest{Source: tenantSrc, Runs: 2})
			resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(body))
			if err != nil {
				errs <- err.Error()
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- resp.Status
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	st := getStats(t, ts.URL)
	if st.Tenants != tenants+1 {
		t.Fatalf("tenants = %d, want %d", st.Tenants, tenants+1)
	}
	// Every tenant shares one linked program and one set of artifacts: the
	// eight later tenants compile nothing and each installs from the cache.
	if st.Broker.Compiled != first.Broker.Compiled {
		t.Fatalf("later tenants recompiled: %d pipeline runs, first tenant %d",
			st.Broker.Compiled, first.Broker.Compiled)
	}
	if st.Broker.Installed != st.Broker.Compiled+st.Broker.CacheHits+st.Broker.DiskHits ||
		st.Broker.CacheHits < tenants || st.WarmInstalls < tenants {
		t.Fatalf("no artifact sharing visible: compiled %d, cache hits %d, installed %d, warm installs %d across %d tenants",
			st.Broker.Compiled, st.Broker.CacheHits, st.Broker.Installed, st.WarmInstalls, tenants)
	}
	if st.Programs != 1 {
		t.Fatalf("program memo holds %d entries, want 1", st.Programs)
	}
	if s.panicked.Load() != 0 {
		t.Fatalf("handler panics: %d", s.panicked.Load())
	}
}

// A request's pipeline_compiles is its own VM's: a warm tenant running beside
// a cold one, on the broker both share, still reports none.
func TestPipelineCompilesAreNotChargedAcrossTenants(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if resp, rr := postRun(t, ts.URL, tenantSrc, 2); resp.StatusCode != http.StatusOK || rr.PipelineCompiles == 0 {
		t.Fatalf("warm-up: %s, %d pipeline compiles", resp.Status, rr.PipelineCompiles)
	}
	const rounds = 20
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // cold tenant: every request a program the server has not seen
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			src := tenantSrc + fmt.Sprintf("class Cold%d { static int pad() { return %d; } }\n", i, i)
			if rr, err := tryRun(ts.URL, src, 2); err != nil || rr.PipelineCompiles == 0 {
				t.Errorf("cold request %d: %v, %d pipeline compiles, want some", i, err, rr.PipelineCompiles)
			}
		}
	}()
	go func() { // warm tenant
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if rr, err := tryRun(ts.URL, tenantSrc, 2); err != nil || rr.PipelineCompiles != 0 {
				t.Errorf("warm request %d: %v, charged %d pipeline compiles", i, err, rr.PipelineCompiles)
			}
		}
	}()
	wg.Wait()
}

// pairloopSrc is examples/pairloop.mj: one call of a 5000-iteration loop
// whose per-iteration allocation PEA removes entirely.
func pairloopSrc(t *testing.T) string {
	t.Helper()
	src, err := os.ReadFile("../../examples/pairloop.mj")
	if err != nil {
		t.Fatal(err)
	}
	return string(src)
}

// TestSecondRequestRunsCompiledFromTheStart is the tentpole over HTTP. The
// first pairloop request interprets Main.hot's loop up to the OSR threshold
// and compiles it mid-call; the second request's fresh VM finds that code at
// the loop's first back edge: no pipeline run, and of the 15 000 objects
// three interpreted runs allocate, only the three allocated before each
// run's first back edge remain.
func TestSecondRequestRunsCompiledFromTheStart(t *testing.T) {
	_, ts := newTestServer(t, Options{CompileThreshold: 20})
	src := pairloopSrc(t)
	resp, first := postRun(t, ts.URL, src, 3)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %s", resp.Status)
	}
	if first.PipelineCompiles == 0 || first.WarmInstalls != 0 {
		t.Fatalf("first request: %+v, want compiles and nothing to install from", first)
	}
	// 1000 interpreted iterations up to the OSR threshold, then one per run.
	if first.GuestAllocs != 1002 {
		t.Fatalf("first request allocated %d guest objects, want 1002", first.GuestAllocs)
	}
	resp, second := postRun(t, ts.URL, src, 3)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second request: %s", resp.Status)
	}
	if second.PipelineCompiles != 0 || second.WarmInstalls < 1 {
		t.Fatalf("second request: %+v, want 0 pipeline compiles and a warm install", second)
	}
	if second.GuestAllocs != 3 {
		t.Fatalf("second request allocated %d guest objects, want 3", second.GuestAllocs)
	}
	if fmt.Sprint(second.Output) != fmt.Sprint(first.Output) {
		t.Fatalf("outputs differ: %v vs %v", second.Output, first.Output)
	}

	// With OSR off a loop inside a method called three times per request
	// never leaves the interpreter, however often the program is posted.
	_, off := newTestServer(t, Options{CompileThreshold: 20, OSRThreshold: -1})
	for i := 0; i < 2; i++ {
		resp, rr := postRun(t, off.URL, src, 3)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("osr-off request %d: %s", i, resp.Status)
		}
		if rr.GuestAllocs != 15000 {
			t.Fatalf("osr-off request %d: %+v, want all 15000 allocations of the interpreted loop", i, rr)
		}
		if fmt.Sprint(rr.Output) != fmt.Sprint(first.Output) {
			t.Fatalf("osr-off output %v, want %v", rr.Output, first.Output)
		}
	}
}

// TestProbeMissesLeaveHitRateAlone: the first-call look into the cache is
// made for every method a tenant calls, most of which were never compiled;
// those misses must not count, or the hit rate would stop describing
// submissions.
func TestProbeMissesLeaveHitRateAlone(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for i := 0; i < 2; i++ {
		if resp, _ := postRun(t, ts.URL, tenantSrc, 2); resp.StatusCode != http.StatusOK {
			t.Fatalf("tenant %d: %s", i, resp.Status)
		}
	}
	before := getStats(t, ts.URL)
	if before.HitRate <= 0 || before.Broker.CacheHits == 0 {
		t.Fatalf("second tenant hit nothing: %+v", before.Broker)
	}
	// A program whose only method runs once per Run: probed, never compiled.
	const cold = `class Main { static void main() { print(7); } }`
	for i := 0; i < 5; i++ {
		resp, rr := postRun(t, ts.URL, cold, 3)
		if resp.StatusCode != http.StatusOK || rr.CompiledMethods != 0 {
			t.Fatalf("cold tenant %d: %s %+v", i, resp.Status, rr)
		}
	}
	after := getStats(t, ts.URL)
	if after.HitRate != before.HitRate || after.Broker.CacheMisses != before.Broker.CacheMisses ||
		after.Broker.CacheHits != before.Broker.CacheHits {
		t.Fatalf("probe misses moved the counters: hit rate %.3f → %.3f, broker %+v → %+v",
			before.HitRate, after.HitRate, before.Broker, after.Broker)
	}
}

// TestSharedRecorderTellsTenantsApart: all request VMs record into the
// server's one ring. Two tenant programs whose hot methods share a dense
// method ID must come out of the dump under their own names. The rest of
// the introspection mux — Go profiles and expvar — is served beside it.
func TestSharedRecorderTellsTenantsApart(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	srcA := tenantSrc
	srcB := strings.ReplaceAll(strings.ReplaceAll(tenantSrc, "Main.f(", "Main.g("), "int f(", "int g(")
	for _, src := range []string{srcA, srcB, srcA} {
		if resp, rr := postRun(t, ts.URL, src, 2); resp.StatusCode != http.StatusOK || rr.CompiledMethods == 0 {
			t.Fatalf("tenant: %s %+v", resp.Status, rr)
		}
	}
	resp, err := http.Get(ts.URL + "/debug/pea/flight")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight dump: %s", resp.Status)
	}
	type line struct {
		Kind   string `json:"kind"`
		Prog   uint32 `json:"prog"`
		Method string `json:"method"`
		Detail string `json:"detail"`
	}
	progOf := map[string]uint32{}
	warm := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad flight line %q: %v", sc.Text(), err)
		}
		if l.Kind != "broker_install" {
			continue
		}
		if l.Method != "Main.f" && l.Method != "Main.g" {
			t.Fatalf("broker_install of %q (prog %d): neither tenant has such a hot method", l.Method, l.Prog)
		}
		if prev, ok := progOf[l.Method]; ok && prev != l.Prog {
			t.Fatalf("%s recorded under programs %d and %d", l.Method, prev, l.Prog)
		}
		progOf[l.Method] = l.Prog
		if l.Detail == "cache" {
			warm++
		}
	}
	if len(progOf) != 2 || progOf["Main.f"] == 0 || progOf["Main.f"] == progOf["Main.g"] {
		t.Fatalf("tenants not told apart: %v", progOf)
	}
	if warm == 0 {
		t.Fatal("the repeated tenant's cache-first install left no record")
	}
	for _, path := range []string{"/debug/pprof/", "/debug/vars"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: %s", path, resp.Status)
		}
	}
}

// TestWarmTenantsSurviveColdFlood: with the code cache bounded at 1 MiB,
// never-seen programs whose charges add up to four times the bound stream
// through between the requests of the example tenants. The cache stays
// within its bound by evicting, and it evicts what is not used lately: after
// the first round, the example tenants compile nothing.
func TestWarmTenantsSurviveColdFlood(t *testing.T) {
	const bound = 1 << 20
	_, ts := newTestServer(t, Options{CacheBytes: bound, CompileThreshold: 20})
	paths, err := filepath.Glob("../../examples/*.mj")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example programs: %v", err)
	}
	var warm []string
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		warm = append(warm, string(src))
	}
	// Every cold entry is charged at least its whole program, so this sum
	// bounds the flood's charge from below.
	var coldCharge int64
	round := 0
	for ; coldCharge < 4*bound; round++ {
		if round > 100 {
			t.Fatalf("100 rounds charged only %d bytes of cold code", coldCharge)
		}
		for i, src := range warm {
			rr, err := tryRun(ts.URL, src, 3)
			if err != nil {
				t.Fatalf("round %d, %s: %v", round, paths[i], err)
			}
			if round > 0 && rr.PipelineCompiles != 0 {
				t.Fatalf("round %d: warm tenant %s ran the pipeline %d times", round, paths[i], rr.PipelineCompiles)
			}
			cold := src + fmt.Sprintf("\nclass Cold_%d_%d { static int pad() { return %d; } }\n", round, i, round)
			if rr, err = tryRun(ts.URL, cold, 3); err != nil {
				t.Fatalf("round %d, cold variant of %s: %v", round, paths[i], err)
			}
			prog, err := mj.Compile(cold, "Main.main")
			if err != nil {
				t.Fatal(err)
			}
			coldCharge += rr.PipelineCompiles * prog.Footprint()
		}
	}
	st := getStats(t, ts.URL)
	t.Logf("%d rounds, cold charge >= %d bytes; cache: %d entries, %d bytes, %d evictions", round, coldCharge, st.CacheEntries, st.CacheBytes, st.CacheEvictions)
	if st.CacheBytes > bound || st.CacheEvictions == 0 {
		t.Fatalf("cache_bytes = %d (bound %d), %d evictions", st.CacheBytes, bound, st.CacheEvictions)
	}
}

// TestProgramMemoEvictsOnlyTheColdest: a burst of one-off programs must not
// make a tenant that keeps posting relink (the memo used to be dropped
// wholesale at the bound).
func TestProgramMemoEvictsOnlyTheColdest(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	hot, err := s.program(tenantSrc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		cold := fmt.Sprintf("class Main { static void main() { print(%d); } }", i)
		if _, err := s.program(cold); err != nil {
			t.Fatal(err)
		}
		again, err := s.program(tenantSrc)
		if err != nil {
			t.Fatal(err)
		}
		if again.prog != hot.prog {
			t.Fatalf("hot program relinked after %d cold sources", i+1)
		}
	}
	if st := s.statsLocked(); st.Programs != maxPrograms {
		t.Fatalf("memo holds %d programs, want the bound %d", st.Programs, maxPrograms)
	}
}

// TestWarmRestartOverHTTP is the serving half of the tentpole: stop the
// server, start a fresh one on the same store directory, replay the same
// tenant traffic — zero pipeline compiles, everything from disk.
func TestWarmRestartOverHTTP(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Options{StoreDir: dir})
	if resp, _ := postRun(t, ts1.URL, tenantSrc, 3); resp.StatusCode != http.StatusOK {
		t.Fatalf("cold run: %s", resp.Status)
	}
	cold := getStats(t, ts1.URL)
	if cold.Broker.Compiled == 0 || cold.StoreArtifacts == 0 {
		t.Fatalf("cold server persisted nothing: %+v", cold)
	}
	ts1.Close()

	_, ts2 := newTestServer(t, Options{StoreDir: dir})
	resp, rr := postRun(t, ts2.URL, tenantSrc, 3)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm run: %s", resp.Status)
	}
	if rr.PipelineCompiles != 0 {
		t.Fatalf("warm restart ran the pipeline %d times", rr.PipelineCompiles)
	}
	if rr.CompiledMethods == 0 {
		t.Fatal("warm restart installed nothing (should replay from disk)")
	}
	warm := getStats(t, ts2.URL)
	if warm.Broker.DiskHits == 0 {
		t.Fatalf("no disk hits after restart: %+v", warm.Broker)
	}
	if warm.HitRate < 0.9 {
		t.Fatalf("warm hit rate %.2f, want >= 0.9", warm.HitRate)
	}
}

// TestLoadHarnessAgainstServer drives the real internal/bench harness at an
// in-process server — the same path cmd/peaload exercises in CI.
func TestLoadHarnessAgainstServer(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Options{StoreDir: dir})
	rep, err := bench.RunLoad(bench.LoadOptions{URL: ts.URL, Tenants: 8, Requests: 2, Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d request errors, first: %s", rep.Errors, rep.FirstError)
	}
	if rep.Requests != 16 || rep.Tenants != 8 {
		t.Fatalf("report shape: %+v", rep)
	}
	if rep.P50Ms <= 0 || rep.P99Ms < rep.P50Ms {
		t.Fatalf("nonsense latencies: p50=%v p99=%v", rep.P50Ms, rep.P99Ms)
	}
	if rep.PipelineCompiles == 0 || rep.HitRate == 0 || rep.CacheBytes == 0 {
		t.Fatalf("cache metrics missing: %+v", rep)
	}

	// A second pass against the same live server reports only its own
	// traffic: nothing left to compile, every request installs cache-first.
	again, err := bench.RunLoad(bench.LoadOptions{URL: ts.URL, Tenants: 8, Requests: 2, Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if again.Errors != 0 || again.PipelineCompiles != 0 || again.WarmInstalls < int64(again.Requests) || again.HitRate != 1 {
		t.Fatalf("second pass on the live server: %+v", again)
	}
	ts.Close()

	// Warm restart under the harness: fresh server, same store.
	_, ts2 := newTestServer(t, Options{StoreDir: dir})
	rep2, err := bench.RunLoad(bench.LoadOptions{URL: ts2.URL, Tenants: 8, Requests: 2, Runs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Errors != 0 {
		t.Fatalf("warm errors: %d (%s)", rep2.Errors, rep2.FirstError)
	}
	if rep2.PipelineCompiles != 0 {
		t.Fatalf("warm restart recompiled %d methods", rep2.PipelineCompiles)
	}
	if rep2.DiskHits == 0 || rep2.HitRate < 0.9 {
		t.Fatalf("warm restart cache metrics: %+v", rep2)
	}
}

// A tenant program that prints a thousand values answers with a body far
// past the harness's 4 KiB error-message cap; every reply must still decode.
func TestLoadHarnessDecodesLongOutput(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	rep, err := bench.RunLoad(bench.LoadOptions{URL: ts.URL, Tenants: 2, Requests: 1, Runs: 1, Source: `
class Main {
	static void main() {
		for (int i = 0; i < 1000; i++) { print(i * 1000003); }
	}
}`})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d request errors, first: %s", rep.Errors, rep.FirstError)
	}
}

// TestPanicContainedPerTenant: a compiler panic in one tenant's compile
// degrades that tenant's method to interpretation; the request still
// succeeds and the server keeps serving other tenants.
func TestPanicContainedPerTenant(t *testing.T) {
	t.Setenv("PEA_FAULT", "pea:panic:1:Main.f") // read by the server's broker
	_, ts := newTestServer(t, Options{})
	resp, rr := postRun(t, ts.URL, tenantSrc, 2)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tenant with poisoned compile got %s, want 200 (interpreted)", resp.Status)
	}
	if rr.FailedCompiles == 0 {
		t.Fatal("panic not recorded as a failed compile")
	}
	if len(rr.Output) != 2 || rr.Output[0] != rr.Output[1] {
		t.Fatalf("interpreted fallback broke the program: %v", rr.Output)
	}
}
