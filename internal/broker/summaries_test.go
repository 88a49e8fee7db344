package broker

import (
	"os"
	"path/filepath"
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
	s1 := b1.Summaries(p, compute)
	if s1 == nil || computes != 1 {
		t.Fatalf("cold resolve: set=%v computes=%d, want computed once", s1 != nil, computes)
	}
	if s2 := b1.Summaries(p, compute); s2 != s1 || computes != 1 {
		t.Fatalf("memory tier: recomputed (computes=%d) or returned a different set", computes)
	}
	if hits, _ := b1.SummaryCache().Stats(); hits == 0 {
		t.Fatal("memory tier recorded no hit")
	}

	// Warm restart: a new broker over the same store directory must load
	// the persisted set instead of re-running the analysis.
	store2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b2 := New(Options{Store: store2})
	defer b2.Close()
	s3 := b2.Summaries(p, compute)
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
