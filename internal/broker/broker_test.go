package broker

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"pea/internal/bc"
	"pea/internal/build"
	"pea/internal/ir"
	"pea/internal/obs"
)

// testMethods assembles n trivial methods so tasks have distinct identities.
func testMethods(t *testing.T, n int) []*bc.Method {
	t.Helper()
	a := bc.NewAssembler()
	c := a.Class("C", "")
	for i := 0; i < n; i++ {
		m := c.Method(fmt.Sprintf("m%d", i), []bc.Kind{bc.KindInt}, bc.KindInt, true)
		m.Load(0).Const(1).Add().ReturnValue()
	}
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*bc.Method, n)
	for i := 0; i < n; i++ {
		out[i] = p.ClassByName("C").MethodByName(fmt.Sprintf("m%d", i))
	}
	return out
}

func key(m *bc.Method) Key {
	return Key{MethodFP: uint64(m.ID) + 1, Name: m.QualifiedName()}
}

// mustBuild produces a real, verifiable graph: the broker re-checks every
// fresh compile before caching it (and PEA_CHECK may floor that check up),
// so test compiles cannot hand back empty placeholder graphs.
func mustBuild(m *bc.Method) *ir.Graph {
	g, err := build.Build(m)
	if err != nil {
		panic(err)
	}
	return g
}

func TestSynchronousSubmitCompilesInline(t *testing.T) {
	ms := testMethods(t, 1)
	var installed []*bc.Method
	h := &Hooks{
		Compile: func(m *bc.Method, k Key) (Artifact, error) { return mustBuild(m), nil },
		Install: func(m *bc.Method, k Key, a Artifact, fromCache bool) {
			if fromCache {
				t.Error("first compile must not come from cache")
			}
			installed = append(installed, m)
		},
	}
	b := New(Options{Workers: 0})
	if b.Async() {
		t.Fatal("zero workers must be synchronous")
	}
	if !b.Submit(ms[0], 10, key(ms[0]), h) {
		t.Fatal("synchronous submit rejected")
	}
	if len(installed) != 1 || installed[0] != ms[0] {
		t.Fatalf("installed = %v, want [m0]", installed)
	}
	st := b.Stats()
	if st.Submitted != 1 || st.Compiled != 1 || st.Installed != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCacheReplay(t *testing.T) {
	ms := testMethods(t, 1)
	compiles := 0
	var fromCacheSeen []bool
	h := &Hooks{
		Compile: func(m *bc.Method, k Key) (Artifact, error) { compiles++; return mustBuild(m), nil },
		Install: func(m *bc.Method, k Key, a Artifact, fromCache bool) {
			fromCacheSeen = append(fromCacheSeen, fromCache)
		},
	}
	b := New(Options{})
	k := key(ms[0])
	b.Submit(ms[0], 1, k, h)
	b.Submit(ms[0], 1, k, h)
	if compiles != 1 {
		t.Fatalf("compiles = %d, want 1 (second submit replays from cache)", compiles)
	}
	want := []bool{false, true}
	for i, fc := range fromCacheSeen {
		if fc != want[i] {
			t.Fatalf("fromCache sequence = %v, want %v", fromCacheSeen, want)
		}
	}
	if st := b.Stats(); st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// A different fingerprint is a different artifact.
	k2 := key(ms[0])
	k2.Fingerprint = 99
	b.Submit(ms[0], 1, k2, h)
	if compiles != 2 {
		t.Fatalf("compiles = %d, want 2 after fingerprint change", compiles)
	}
}

// TestCachedIsAnEarlierReadOfTheCache pins the first-call entry point's
// accounting: a miss leaves no trace (neither in the broker's nor in the
// cache's counters), a hit counts exactly like a submission's replay and
// hands the canonical artifact back without calling Install, and a panic at
// the install fault point is contained and routed to Fail.
func TestCachedIsAnEarlierReadOfTheCache(t *testing.T) {
	ms := testMethods(t, 2)
	var faulty bool
	var failed error
	var events []obs.Event
	h := &Hooks{
		Compile: func(m *bc.Method, k Key) (Artifact, error) { return mustBuild(m), nil },
		Install: func(m *bc.Method, k Key, a Artifact, fromCache bool) {},
		Fail:    func(m *bc.Method, k Key, err error) { failed = err },
		Sink:    obs.NewSink(obs.FuncBackend(func(e *obs.Event) { events = append(events, *e) })),
	}
	b := New(Options{
		InjectFault: func(point, method string) {
			if faulty && point == FaultInstall {
				panic("injected at install")
			}
		},
	})
	k := key(ms[0])
	if a, ok := b.Cached(ms[0], k, h); ok || a != nil {
		t.Fatal("hit on an empty cache")
	}
	if st := b.Stats(); st.CacheMisses != 0 || st.CacheHits != 0 || st.Installed != 0 || st.BusyNS != 0 {
		t.Fatalf("a miss left a trace: %+v", st)
	}
	if hits, misses := b.Cache().Stats(); hits != 0 || misses != 0 {
		t.Fatalf("a miss left a trace in the cache: %d hits, %d misses", hits, misses)
	}
	if len(events) != 0 {
		t.Fatalf("a miss left %d events", len(events))
	}

	b.Submit(ms[0], 1, k, h)
	want, _ := b.Cache().Get(k)
	a, ok := b.Cached(ms[0], k, h)
	if !ok || a != want {
		t.Fatalf("Cached = %v, %v; want the cache's canonical artifact", a, ok)
	}
	st := b.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 || st.Installed != 2 || st.Submitted != 1 {
		t.Fatalf("stats after one compile and one early read = %+v", st)
	}
	if last := events[len(events)-1]; last.Kind != obs.KindBrokerInstall || last.Detail != "cache" {
		t.Fatalf("last event = %+v, want broker_install/cache", last)
	}
	if _, ok := b.Cached(ms[1], key(ms[1]), h); ok {
		t.Fatal("hit for a method that was never compiled")
	}

	faulty = true
	if _, ok := b.Cached(ms[0], k, h); ok {
		t.Fatal("install-point panic still handed the artifact out")
	}
	var pe *PanicError
	if !errors.As(failed, &pe) {
		t.Fatalf("failure is %T (%v), want *PanicError", failed, failed)
	}
	if st := b.Stats(); st.Panics != 1 || st.Failed != 1 || st.CacheHits != 1 {
		t.Fatalf("stats after the contained panic = %+v", st)
	}
}

func TestCompileFailureRoutesToFail(t *testing.T) {
	ms := testMethods(t, 1)
	boom := errors.New("boom")
	var failed error
	h := &Hooks{
		Compile: func(m *bc.Method, k Key) (Artifact, error) { return nil, boom },
		Install: func(m *bc.Method, k Key, a Artifact, fromCache bool) { t.Error("failed compile installed") },
		Fail:    func(m *bc.Method, k Key, err error) { failed = err },
	}
	b := New(Options{})
	b.Submit(ms[0], 1, key(ms[0]), h)
	if !errors.Is(failed, boom) {
		t.Fatalf("failure not recorded: %v", failed)
	}
	if st := b.Stats(); st.Failed != 1 || st.Installed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSubmitWithoutCompileHookFails: a submission that reaches the pipeline
// with nil Hooks, or Hooks without Compile, is a recorded failure — on a
// worker too, where a nil-func call would take the process down.
func TestSubmitWithoutCompileHookFails(t *testing.T) {
	ms := testMethods(t, 2)
	for _, workers := range []int{0, 1} {
		var failed error
		b := New(Options{Workers: workers})
		if !b.Submit(ms[0], 1, key(ms[0]), nil) {
			t.Fatalf("workers=%d: nil hooks rejected at submission", workers)
		}
		b.Submit(ms[1], 1, key(ms[1]), &Hooks{Fail: func(m *bc.Method, k Key, err error) { failed = err }})
		b.Drain()
		b.Close()
		if failed == nil || !strings.Contains(failed.Error(), "no Compile hook") {
			t.Fatalf("workers=%d: Fail got %v", workers, failed)
		}
		if st := b.Stats(); st.Failed != 2 || st.Panics != 0 || st.Installed != 0 {
			t.Fatalf("workers=%d: stats = %+v", workers, st)
		}
	}
}

func TestAsyncDedupAndQueueBound(t *testing.T) {
	ms := testMethods(t, 8)
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	h := &Hooks{
		Compile: func(m *bc.Method, k Key) (Artifact, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			<-release
			return mustBuild(m), nil
		},
	}
	b := New(Options{Workers: 1, QueueCap: 2})
	// LIFO defers: release the parked worker first, then Close can join it.
	defer b.Close()
	defer close(release)

	if !b.Submit(ms[0], 1, key(ms[0]), h) {
		t.Fatal("first async submit rejected")
	}
	<-started // worker is now parked inside Compile for m0
	if !b.Pending(ms[0], 0) {
		t.Fatal("m0 must be pending while compiling")
	}
	if b.Submit(ms[0], 1, key(ms[0]), h) {
		t.Fatal("duplicate of in-flight method must coalesce")
	}
	if !b.Submit(ms[1], 1, key(ms[1]), h) || !b.Submit(ms[2], 1, key(ms[2]), h) {
		t.Fatal("submissions within the bound rejected")
	}
	if b.Submit(ms[3], 1, key(ms[3]), h) {
		t.Fatal("submission over the queue bound accepted")
	}
	st := b.Stats()
	if st.Dedup != 1 || st.Rejected != 1 || st.Submitted != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAsyncPriorityOrder(t *testing.T) {
	ms := testMethods(t, 5)
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	var mu sync.Mutex
	var order []*bc.Method
	h := &Hooks{
		Compile: func(m *bc.Method, k Key) (Artifact, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			mu.Lock()
			order = append(order, m)
			mu.Unlock()
			if m == ms[0] {
				<-release
			}
			return mustBuild(m), nil
		},
	}
	b := New(Options{Workers: 1})
	defer b.Close()

	// Park the worker on ms[0], then queue the rest with mixed hotness.
	b.Submit(ms[0], 1, key(ms[0]), h)
	<-started
	b.Submit(ms[1], 5, key(ms[1]), h)
	b.Submit(ms[2], 50, key(ms[2]), h)
	b.Submit(ms[3], 5, key(ms[3]), h) // ties with ms[1]; FIFO within a level
	b.Submit(ms[4], 500, key(ms[4]), h)
	close(release)
	b.Drain()

	want := []*bc.Method{ms[0], ms[4], ms[2], ms[1], ms[3]}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != len(want) {
		t.Fatalf("compiled %d methods, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("compile order[%d] = %s, want %s", i, order[i].Name, want[i].Name)
		}
	}
	if st := b.Stats(); st.MaxQueue != 4 {
		t.Fatalf("max queue = %d, want 4", st.MaxQueue)
	}
}

func TestDrainWaitsForWorkers(t *testing.T) {
	ms := testMethods(t, 6)
	var done int64
	var mu sync.Mutex
	h := &Hooks{
		Compile: func(m *bc.Method, k Key) (Artifact, error) {
			mu.Lock()
			done++
			mu.Unlock()
			return mustBuild(m), nil
		},
	}
	b := New(Options{Workers: 3})
	defer b.Close()
	for _, m := range ms {
		b.Submit(m, 1, key(m), h)
	}
	b.Drain()
	mu.Lock()
	defer mu.Unlock()
	if done != int64(len(ms)) {
		t.Fatalf("drained with %d/%d compiles done", done, len(ms))
	}
}

func TestClosedBrokerRejects(t *testing.T) {
	ms := testMethods(t, 1)
	h := &Hooks{
		Compile: func(m *bc.Method, k Key) (Artifact, error) { return mustBuild(m), nil },
	}
	b := New(Options{Workers: 1})
	b.Close()
	if b.Submit(ms[0], 1, key(ms[0]), h) {
		t.Fatal("closed broker accepted a submission")
	}
}

// The first artifact published for a key stays, and stays charged once,
// even when a later one would be charged differently.
func TestCacheFirstWriterWins(t *testing.T) {
	ms := testMethods(t, 1)
	c := NewCache()
	k := key(ms[0])
	g1, g2 := new(ir.Graph), graphOf(500)
	if got := c.Put(k, g1); got != g1 {
		t.Fatal("first Put must keep its graph")
	}
	if got := c.Put(k, g2); got != g1 {
		t.Fatal("second Put must return the already-published graph")
	}
	if g, ok := c.Get(k); !ok || g != g1 {
		t.Fatal("Get must observe the canonical artifact")
	}
	if c.Len() != 1 || c.Bytes() != charge(k, g1) {
		t.Fatalf("len = %d, bytes = %d, want 1 entry of %d", c.Len(), c.Bytes(), charge(k, g1))
	}
}

func TestNilCacheAlwaysMisses(t *testing.T) {
	var c *Cache
	ms := testMethods(t, 1)
	if _, ok := c.Get(key(ms[0])); ok {
		t.Fatal("nil cache hit")
	}
	g := new(ir.Graph)
	if c.Put(key(ms[0]), g) != g {
		t.Fatal("nil cache Put must pass the graph through")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache has length")
	}
}
