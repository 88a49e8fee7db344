package broker

import (
	"io/fs"
	"os"
	"testing"
	"time"

	"pea/internal/bc"
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
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	set := summary.Compute(p, summary.Options{})
	if err := s.PutSummaries(p, set); err != nil {
		t.Fatal(err)
	}
	path := s.sumPath(p.Fingerprint())
	if err := os.WriteFile(path, []byte(`{"version":999}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadSummaries(p); ok {
		t.Fatal("corrupt summary file was not rejected")
	}
	if st := s.Stats(); st.Rejected != 1 {
		t.Fatalf("Rejected = %d, want 1", st.Rejected)
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

func TestStoreMaxBytesExpelsOldestFirst(t *testing.T) {
	p, ms := testProgram(t, 4)
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	for _, m := range ms {
		k := contentKey(p, m)
		if err := s.Put(k, mustBuild(m)); err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(s.path(k))
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, info.Size())
		// Distinct mtimes so eviction order is the write order even on
		// coarse-mtime filesystems.
		old := time.Now().Add(-time.Duration(len(ms)-len(sizes)) * time.Hour)
		if err := os.Chtimes(s.path(k), old, old); err != nil {
			t.Fatal(err)
		}
	}
	// Bound to exactly the two newest artifacts: the two oldest must go.
	s.SetMaxBytes(sizes[2] + sizes[3])
	if got := s.Len(); got != 2 {
		t.Fatalf("store holds %d files after eviction, want 2", got)
	}
	if st := s.Stats(); st.Expelled != 2 {
		t.Fatalf("Expelled = %d, want 2", st.Expelled)
	}
	// The survivors are the newest two.
	for i, m := range ms {
		_, err := os.Stat(s.path(contentKey(p, m)))
		if i < 2 && err == nil {
			t.Fatalf("old artifact %d survived eviction", i)
		}
		if i >= 2 && err != nil {
			t.Fatalf("new artifact %d was expelled: %v", i, err)
		}
	}
	// A write that fits keeps fitting: re-put an old artifact and check
	// the bound still holds.
	if err := s.Put(contentKey(p, ms[0]), mustBuild(ms[0])); err != nil {
		t.Fatal(err)
	}
	var total int64
	s.each(func(_ string, e fs.DirEntry) {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	})
	if total > sizes[2]+sizes[3] {
		t.Fatalf("store size %d exceeds bound %d after write", total, sizes[2]+sizes[3])
	}
}
