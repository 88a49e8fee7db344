package broker

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"pea/internal/bc"
	"pea/internal/check"
	"pea/internal/ir"
)

// testProgram assembles a program with n trivial methods, returning both so
// store tests can resolve decoded artifacts against it.
func testProgram(t *testing.T, n int) (*bc.Program, []*bc.Method) {
	t.Helper()
	a := bc.NewAssembler()
	c := a.Class("C", "")
	for i := 0; i < n; i++ {
		m := c.Method(fmt.Sprintf("m%d", i), []bc.Kind{bc.KindInt}, bc.KindInt, true)
		m.Load(0).Const(int64(i + 1)).Add().ReturnValue()
	}
	p, err := a.Finish("")
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*bc.Method, n)
	for i := 0; i < n; i++ {
		out[i] = p.ClassByName("C").MethodByName(fmt.Sprintf("m%d", i))
	}
	return p, out
}

func contentKey(p *bc.Program, m *bc.Method) Key {
	return Key{MethodFP: p.MethodFingerprint(m), Name: m.QualifiedName()}
}

func TestStoreRoundTrip(t *testing.T) {
	p, ms := testProgram(t, 2)
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		g := mustBuild(m)
		k := contentKey(p, m)
		if err := s.Put(k, g); err != nil {
			t.Fatalf("put %s: %v", m.QualifiedName(), err)
		}
		back, ok := s.Load(k, p, check.Basic)
		if !ok {
			t.Fatalf("load %s: miss after put", m.QualifiedName())
		}
		if got, want := ir.Dump(back), ir.Dump(g); got != want {
			t.Fatalf("%s: store round-trip changed the graph:\n%s\nvs\n%s",
				m.QualifiedName(), got, want)
		}
		if back.Method != m {
			t.Fatalf("%s: loaded graph bound to wrong method", m.QualifiedName())
		}
	}
	st := s.Stats()
	if st.Writes != 2 || st.Hits != 2 || st.Rejected != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if s.Len() != 2 {
		t.Fatalf("store holds %d files, want 2", s.Len())
	}
}

// Artifacts live in shard directories named by the first hex digit of their
// file name, made on first use; the root holds directories (and summary sets)
// only, and Len counts through the shards.
func TestStoreShardsArtifactsByHashPrefix(t *testing.T) {
	p, ms := testProgram(t, 8)
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("fresh store holds %d entries, want none", len(ents))
	}
	for _, m := range ms {
		k := contentKey(p, m)
		if err := s.Put(k, mustBuild(m)); err != nil {
			t.Fatal(err)
		}
		shard, name := filepath.Base(filepath.Dir(s.path(k))), filepath.Base(s.path(k))
		if filepath.Dir(filepath.Dir(s.path(k))) != dir || len(shard) != 1 || name[:1] != shard {
			t.Fatalf("artifact path %s is not <root>/<first hex digit>/<hash>.json", s.path(k))
		}
		if _, ok := s.Load(k, p, check.Basic); !ok {
			t.Fatalf("%s: not loadable from its shard", k.Name)
		}
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if !e.IsDir() {
			t.Fatalf("file %s in the store root", e.Name())
		}
	}
	if got := s.Len(); got != len(ms) {
		t.Fatalf("Len = %d, want %d", got, len(ms))
	}
}

func TestStoreMissOnUnknownKey(t *testing.T) {
	p, ms := testProgram(t, 1)
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Load(contentKey(p, ms[0]), p, check.Basic); ok {
		t.Fatal("empty store returned a hit")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Everything on disk is untrusted: corrupt bytes, stale versions, key
// mismatches, and well-formed-but-invalid graphs must all be quiet misses.
func TestStoreRejectsBadFiles(t *testing.T) {
	p, ms := testProgram(t, 1)
	m := ms[0]
	g := mustBuild(m)
	k := contentKey(p, m)

	goodPayload, err := ir.EncodeJSON(g)
	if err != nil {
		t.Fatal(err)
	}
	mustEnvelope := func(version int, key Key, payload []byte) []byte {
		data, err := json.Marshal(&envelope{Version: version, Key: key, Graph: payload})
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	brokenGraph := func() []byte {
		// Decodes fine but fails the install-boundary check: drop the
		// entry block's terminator.
		var jg map[string]any
		if err := json.Unmarshal(goodPayload, &jg); err != nil {
			t.Fatal(err)
		}
		jg["blocks"].([]any)[0].(map[string]any)["term"] = float64(-1)
		out, err := json.Marshal(jg)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	otherKey := k
	otherKey.Fingerprint = 12345

	cases := []struct {
		name string
		data []byte
	}{
		{"garbage", []byte("!!! not json !!!")},
		{"truncated", mustEnvelope(StoreVersion, k, goodPayload)[:40]},
		{"stale-version", mustEnvelope(StoreVersion+1, k, goodPayload)},
		{"key-mismatch", mustEnvelope(StoreVersion, otherKey, goodPayload)},
		{"undecodable-graph", mustEnvelope(StoreVersion, k, []byte(`{"method":"Nope.x"}`))},
		{"fails-check", mustEnvelope(StoreVersion, k, brokenGraph())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Dir(s.path(k)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(s.path(k), tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Load(k, p, check.Basic); ok {
				t.Fatalf("%s: corrupt file loaded as a hit", tc.name)
			}
			if st := s.Stats(); st.Rejected != 1 {
				t.Fatalf("%s: stats = %+v, want 1 rejection", tc.name, st)
			}
		})
	}
}

// Two store handles (standing in for two processes) sharing one directory:
// concurrent atomic-rename writers and readers of the same keys must never
// observe partial files or corrupt loads. Run under -race in CI.
func TestStoreSharedDirConcurrency(t *testing.T) {
	p, ms := testProgram(t, 4)
	dir := t.TempDir()
	s1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	graphs := make([]*ir.Graph, len(ms))
	keys := make([]Key, len(ms))
	for i, m := range ms {
		graphs[i] = mustBuild(m)
		keys[i] = contentKey(p, m)
	}

	const rounds = 50
	var wg sync.WaitGroup
	for _, s := range []*Store{s1, s2} {
		s := s
		wg.Add(2)
		go func() { // writer: re-put every key repeatedly (rename races)
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range keys {
					if err := s.Put(keys[i], graphs[i]); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				}
			}
		}()
		go func() { // reader: loads must be full hits or clean misses
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range keys {
					if g, ok := s.Load(keys[i], p, check.Basic); ok {
						if got, want := ir.Dump(g), ir.Dump(graphs[i]); got != want {
							t.Errorf("load returned a different graph")
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range []*Store{s1, s2} {
		if st := s.Stats(); st.Rejected != 0 {
			t.Fatalf("concurrent sharing produced rejections: %+v", st)
		}
	}
	// After the dust settles every key must hit.
	for i := range keys {
		if _, ok := s1.Load(keys[i], p, check.Basic); !ok {
			t.Fatalf("key %d missing after concurrent writes", i)
		}
	}
}

// The broker's two-tier lookup: a fresh broker sharing the store (new
// process, cold memory cache) must resolve submissions from disk without
// running the pipeline.
func TestBrokerDiskTier(t *testing.T) {
	p, ms := testProgram(t, 3)
	dir := t.TempDir()
	store1, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	compiles := 0
	newBroker := func(s *Store) *Broker {
		return New(Options{
			Store:    s,
			Resolver: p,
			Compile: func(m *bc.Method, k Key) (Artifact, error) {
				compiles++
				return mustBuild(m), nil
			},
		})
	}
	b1 := newBroker(store1)
	for _, m := range ms {
		b1.Submit(m, 1, contentKey(p, m))
	}
	if compiles != len(ms) {
		t.Fatalf("cold run compiled %d, want %d", compiles, len(ms))
	}
	if st := store1.Stats(); st.Writes != int64(len(ms)) {
		t.Fatalf("write-through missing: %+v", st)
	}

	// "Restart": fresh broker, fresh memory cache, same directory.
	store2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b2 := newBroker(store2)
	var installed int
	for _, m := range ms {
		b2.SubmitHooks(m, 1, contentKey(p, m), &Hooks{
			Install: func(m *bc.Method, k Key, a Artifact, fromCache bool) {
				if !fromCache {
					t.Errorf("%s: disk replay reported fromCache=false", m.QualifiedName())
				}
				installed++
			},
		})
	}
	if compiles != len(ms) {
		t.Fatalf("warm restart recompiled: %d pipeline runs total, want %d", compiles, len(ms))
	}
	if installed != len(ms) {
		t.Fatalf("installed %d, want %d", installed, len(ms))
	}
	st := b2.Stats()
	if st.DiskHits != int64(len(ms)) || st.Compiled != 0 {
		t.Fatalf("broker stats = %+v, want %d disk hits and 0 compiles", st, len(ms))
	}
	// Third submission round: now in the memory cache.
	for _, m := range ms {
		b2.Submit(m, 1, contentKey(p, m))
	}
	if st := b2.Stats(); st.CacheHits != int64(len(ms)) {
		t.Fatalf("memory tier not warmed by disk loads: %+v", st)
	}
}

// TestStoreEvictionDeterministicTieBreak pins the eviction order of
// enforceMaxBytes: oldest modification time first, with ties broken by
// file name — so two stores with identical contents always expel the same
// artifacts regardless of directory-listing or write order.
func TestStoreEvictionDeterministicTieBreak(t *testing.T) {
	p, ms := testProgram(t, 4)
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if err := s.Put(contentKey(p, m), mustBuild(m)); err != nil {
			t.Fatal(err)
		}
	}

	// Artifacts live one level down, in their shard directories; names are
	// relative to the store root.
	list := func() []string {
		var names []string
		s.each(func(rel string, _ fs.DirEntry) { names = append(names, rel) })
		sort.Strings(names)
		return names
	}
	total := func(names []string) int64 {
		var n int64
		for _, name := range names {
			info, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			n += info.Size()
		}
		return n
	}

	names := list()
	if len(names) != 4 {
		t.Fatalf("store holds %v, want 4 files", names)
	}
	// Equal mtimes everywhere: the name alone must decide, evicting the
	// lexicographically smallest first.
	when := time.Now().Add(-time.Hour)
	for _, name := range names {
		if err := os.Chtimes(filepath.Join(dir, name), when, when); err != nil {
			t.Fatal(err)
		}
	}
	s.SetMaxBytes(total(names) - 1)
	if got, want := list(), names[1:]; !slices.Equal(got, want) {
		t.Fatalf("after name tie-break eviction: %v, want %v", got, want)
	}

	// mtime dominates the name: age the lexicographically last file and it
	// goes first even though its name sorts after every other survivor.
	names = list()
	victim := names[len(names)-1]
	older := when.Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, victim), older, older); err != nil {
		t.Fatal(err)
	}
	s.SetMaxBytes(total(names) - 1)
	if got, want := list(), names[:len(names)-1]; !slices.Equal(got, want) {
		t.Fatalf("after mtime eviction: %v, want %v", got, want)
	}
	if st := s.Stats(); st.Expelled != 2 {
		t.Fatalf("expelled = %d, want 2", st.Expelled)
	}
}
