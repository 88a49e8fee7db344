package broker

import (
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"pea/internal/bc"
	"pea/internal/check"
	"pea/internal/summary"
)

// summaryTestProgram assembles a program whose summaries are non-trivial:
// observe(b) reads a field (ArgEscape), ignore(b) never touches b
// (NoEscape).
func summaryTestProgram(t *testing.T) *bc.Program {
	t.Helper()
	a := bc.NewAssembler()
	box := a.Class("Box", "")
	vField := box.Field("v", bc.KindInt)
	c := a.Class("C", "")
	obsM := c.Method("observe", []bc.Kind{bc.KindRef}, bc.KindInt, true)
	obsM.Load(0).GetField(vField).ReturnValue()
	ign := c.Method("ignore", []bc.Kind{bc.KindRef}, bc.KindInt, true)
	ign.Const(1).ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestStoreSummariesRoundTrip(t *testing.T) {
	p := summaryTestProgram(t)
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	set := summary.Compute(p, summary.Options{})
	if err := s.PutSummaries(p, set); err != nil {
		t.Fatal(err)
	}
	back, ok := s.LoadSummaries(p)
	if !ok {
		t.Fatal("miss after PutSummaries")
	}
	if back.Table() != set.Table() {
		t.Fatalf("summary store round-trip changed the set:\n%s\nvs\n%s",
			back.Table(), set.Table())
	}
	st := s.Stats()
	if st.SummaryWrites != 1 || st.SummaryHits != 1 || st.SummaryMisses != 0 {
		t.Fatalf("summary stats = %+v", st)
	}
}

func TestStoreSummariesRejectsCorruptFile(t *testing.T) {
	p := summaryTestProgram(t)
	dir := t.TempDir()
	id, key := summariesID(p)
	plantSegment(t, dir, "0000000000000001", appendRecord(nil, id, key, []byte(`{"version":999}`)))
	s := mustStore(t, dir)
	if _, ok := s.LoadSummaries(p); ok {
		t.Fatal("corrupt summary record was not rejected")
	}
	if st := s.Stats(); st.Rejected != 1 || st.SummaryMisses != 1 {
		t.Fatalf("stats = %+v, want 1 rejection and 1 summary miss", st)
	}
	// The refused record does not keep the recomputed set out.
	set := summary.Compute(p, summary.Options{})
	if err := s.PutSummaries(p, set); err != nil {
		t.Fatal(err)
	}
	if back, ok := s.LoadSummaries(p); !ok || back.Table() != set.Table() {
		t.Fatal("summary set put after a rejection does not load")
	}
}

// TestBrokerSummariesTiers drives the full resolution ladder: a cold broker
// computes once; a second request on the same broker is a memory hit; a
// fresh broker on the same store loads from disk without recomputing.
func TestBrokerSummariesTiers(t *testing.T) {
	p := summaryTestProgram(t)
	dir := t.TempDir()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	computes := 0
	compute := func() *summary.Set {
		computes++
		return summary.Compute(p, summary.Options{})
	}

	b1 := New(Options{Store: store})
	defer b1.Close()
	s1 := b1.Summaries(p, nil, compute)
	if s1 == nil || computes != 1 {
		t.Fatalf("cold resolve: set=%v computes=%d, want computed once", s1 != nil, computes)
	}
	if s2 := b1.Summaries(p, nil, compute); s2 != s1 || computes != 1 {
		t.Fatalf("memory tier: recomputed (computes=%d) or returned a different set", computes)
	}
	if st := b1.Store().Stats(); st.SummaryHits != 0 || st.SummaryMisses != 1 {
		t.Fatalf("second request went past the memory tier: store stats %+v", st)
	}

	// Warm restart: a new broker over the same store directory must load
	// the persisted set instead of re-running the analysis.
	store2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b2 := New(Options{Store: store2})
	defer b2.Close()
	s3 := b2.Summaries(p, nil, compute)
	if computes != 1 {
		t.Fatalf("warm restart recomputed summaries (computes=%d)", computes)
	}
	if s3 == nil || s3.Table() != s1.Table() {
		t.Fatal("warm restart loaded a different summary set")
	}
	if st := store2.Stats(); st.SummaryHits != 1 {
		t.Fatalf("store2 SummaryHits = %d, want 1", st.SummaryHits)
	}
}

// TestBrokerSummariesBounded: the summary tier holds at most maxSummarySets
// programs however many pass through, its singleflight map holds only
// resolutions in progress, an evicted program is resolved again exactly once,
// and concurrent first requests for one program share one computation.
func TestBrokerSummariesBounded(t *testing.T) {
	// program(i) has its own fingerprint: the constant is part of the body.
	program := func(i int) *bc.Program {
		a := bc.NewAssembler()
		a.Class("C", "").Method("k", nil, bc.KindInt, true).Const(int64(i)).ReturnValue()
		p, err := a.Finish("")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	b := New(Options{})
	defer b.Close()
	var computes atomic.Int64
	resolve := func(p *bc.Program) *summary.Set {
		return b.Summaries(p, nil, func() *summary.Set {
			computes.Add(1)
			return summary.Compute(p, summary.Options{})
		})
	}
	assertBounded := func(when string) {
		t.Helper()
		b.sumMu.Lock()
		n, flying := len(b.summaries.sets), len(b.sumFlight)
		b.sumMu.Unlock()
		if n > maxSummarySets || flying != 0 {
			t.Fatalf("%s: %d sets cached (bound %d), %d singleflight entries left", when, n, maxSummarySets, flying)
		}
	}

	const extra = 8
	progs := make([]*bc.Program, maxSummarySets+extra)
	for i := range progs {
		progs[i] = program(i)
		if resolve(progs[i]) == nil {
			t.Fatalf("program %d resolved to no set", i)
		}
	}
	assertBounded("after churn")
	if got := computes.Load(); got != int64(len(progs)) {
		t.Fatalf("%d computations for %d distinct programs", got, len(progs))
	}

	// The first programs in were the least recently used: gone, and resolved
	// again exactly once. The last ones in are still there.
	before := computes.Load()
	s1 := resolve(progs[0])
	if s2 := resolve(progs[0]); s1 == nil || s2 != s1 || computes.Load() != before+1 {
		t.Fatalf("evicted program: %d recomputations, want exactly 1", computes.Load()-before)
	}
	if resolve(progs[len(progs)-1]); computes.Load() != before+1 {
		t.Fatal("a recently used program was evicted")
	}
	assertBounded("after re-resolving an evicted program")

	// Concurrent first requests: the computation waits until every requester
	// is on its way in, so they overlap.
	fresh := program(len(progs))
	const requesters = 8
	var arrived, done sync.WaitGroup
	arrived.Add(requesters)
	sets := make([]*summary.Set, requesters)
	before = computes.Load()
	for i := 0; i < requesters; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			arrived.Done()
			sets[i] = b.Summaries(fresh, nil, func() *summary.Set {
				arrived.Wait()
				computes.Add(1)
				return summary.Compute(fresh, summary.Options{})
			})
		}(i)
	}
	done.Wait()
	if got := computes.Load() - before; got != 1 {
		t.Fatalf("%d computations for %d concurrent first requests, want 1", got, requesters)
	}
	for i, s := range sets {
		if s == nil || s != sets[0] {
			t.Fatalf("requester %d got a different set", i)
		}
	}
	assertBounded("after concurrent first requests")
}

// With a byte bound the handle rolls to a new segment at a quarter of the
// bound and gives whole segments up oldest first, so the store stays inside
// the bound to within the segment being written.
func TestStoreMaxBytesExpelsOldestFirst(t *testing.T) {
	p, ms := testProgram(t, 4)
	dir := t.TempDir()
	s := mustStore(t, dir)
	one := int64(len(goodRecord(t, contentKey(p, ms[0]), mustBuild(ms[0]))))
	// Room for two records and a half: each record is more than a quarter of
	// that, so each gets a segment of its own, and the third and fourth puts
	// each push the oldest segment out.
	bound := 2*one + one/2
	s.SetMaxBytes(bound)
	for _, m := range ms {
		if err := s.Put(contentKey(p, m), mustBuild(m)); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Bytes > bound {
			t.Fatalf("store is %d bytes after a put, bound %d", st.Bytes, bound)
		}
	}
	if got := s.Len(); got != 2 {
		t.Fatalf("store holds %d records after eviction, want 2", got)
	}
	if st := s.Stats(); st.Expelled != 2 || st.Segments != 2 || len(segmentFiles(t, dir)) != 2 {
		t.Fatalf("stats = %+v, files = %v; want 2 expelled and 2 segments left", st, segmentFiles(t, dir))
	}
	// The survivors are the newest two.
	for i, m := range ms {
		_, ok := s.Load(contentKey(p, m), p, check.Basic)
		if i < 2 && ok {
			t.Fatalf("old artifact %d survived eviction", i)
		}
		if i >= 2 && !ok {
			t.Fatalf("new artifact %d was expelled", i)
		}
	}
	// An expelled key can come back, and the bound still holds.
	if err := s.Put(contentKey(p, ms[0]), mustBuild(ms[0])); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(contentKey(p, ms[0]), p, check.Basic); !ok {
		t.Fatal("artifact put again after its expulsion does not load")
	}
	var total int64
	for _, name := range segmentFiles(t, dir) {
		info, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		total += info.Size()
	}
	if st := s.Stats(); total > bound || st.Bytes != total {
		t.Fatalf("store is %d bytes on disk (Stats: %d), bound %d", total, st.Bytes, bound)
	}
}
