package broker

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"pea/internal/bc"
	"pea/internal/check"
	"pea/internal/obs"
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

// TestBrokerSummariesTiers: a cold broker computes once; a second request on
// the same broker is a memory hit, reported to the requester's sink; a fresh
// broker on the same store (a new process) computes again, because the store
// holds no summary set.
func TestBrokerSummariesTiers(t *testing.T) {
	p := summaryTestProgram(t)
	dir := t.TempDir()
	computes := 0
	compute := func() *summary.Set {
		computes++
		return summary.Compute(p, summary.Options{})
	}

	b1 := New(Options{Store: mustStore(t, dir)})
	defer b1.Close()
	s1 := b1.Summaries(p, nil, compute)
	if s1 == nil || computes != 1 {
		t.Fatalf("cold resolve: set=%v computes=%d, want computed once", s1 != nil, computes)
	}
	var sources []string
	sink := obs.NewSink(obs.FuncBackend(func(e *obs.Event) {
		if e.Kind == obs.KindSummary {
			sources = append(sources, e.Reason)
		}
	}))
	if s2 := b1.Summaries(p, sink, compute); s2 != s1 || computes != 1 {
		t.Fatalf("memory tier: recomputed (computes=%d) or returned a different set", computes)
	}
	if fmt.Sprint(sources) != "[cache]" {
		t.Fatalf("memory hit reported summary_ready sources %v, want [cache]", sources)
	}

	b2 := New(Options{Store: mustStore(t, dir)})
	defer b2.Close()
	if s3 := b2.Summaries(p, nil, compute); s3 == nil || s3.Table() != s1.Table() || computes != 2 {
		t.Fatalf("fresh broker: computes=%d, want the set computed again and equal", computes)
	}
	if files := segmentFiles(t, dir); len(files) != 0 {
		t.Fatalf("summary resolution wrote %v to the store", files)
	}
}

// TestBrokerSummariesBounded: the summary tier holds at most maxSummarySets
// programs however many pass through, an evicted program is resolved again
// exactly once, and concurrent first requests for one program all get equal
// sets while the tier ends up holding exactly one.
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
		n := len(b.summaries.sets)
		b.sumMu.Unlock()
		if n > maxSummarySets {
			t.Fatalf("%s: %d sets cached (bound %d)", when, n, maxSummarySets)
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
	// is on its way in, so they overlap. Each may compute; the first to
	// publish wins.
	fresh := program(len(progs))
	const requesters = 8
	var arrived, done sync.WaitGroup
	arrived.Add(requesters)
	sets := make([]*summary.Set, requesters)
	for i := 0; i < requesters; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			arrived.Done()
			sets[i] = b.Summaries(fresh, nil, func() *summary.Set {
				arrived.Wait()
				return summary.Compute(fresh, summary.Options{})
			})
		}(i)
	}
	done.Wait()
	for i, s := range sets {
		if s == nil || s.Table() != sets[0].Table() {
			t.Fatalf("requester %d got a different set", i)
		}
	}
	b.sumMu.Lock()
	cached := b.summaries.sets[fresh.Fingerprint()]
	b.sumMu.Unlock()
	if cached == nil || resolve(fresh) != cached.set {
		t.Fatal("after concurrent first requests the tier does not hold the one set every later caller gets")
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
