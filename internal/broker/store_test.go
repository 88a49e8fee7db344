package broker

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
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

// artifactRecord frames payload as the record Put would write for k.
func artifactRecord(k Key, payload []byte) []byte {
	id, key := artifactID(k)
	return appendRecord(nil, id, key, payload)
}

// goodRecord is the record Put writes for g under k.
func goodRecord(t *testing.T, k Key, g *ir.Graph) []byte {
	t.Helper()
	payload, err := ir.EncodeJSON(g)
	if err != nil {
		t.Fatal(err)
	}
	return artifactRecord(k, payload)
}

// plantSegment writes data as the segment file name in dir, as another
// handle (or an earlier process) would have left it.
func plantSegment(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, name+segExt), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// segmentFiles lists the store directory's regular files.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	return names
}

func mustStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreRoundTrip(t *testing.T) {
	p, ms := testProgram(t, 2)
	dir := t.TempDir()
	s := mustStore(t, dir)
	if files := segmentFiles(t, dir); len(files) != 0 {
		t.Fatalf("a store that has written nothing holds %v", files)
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
		t.Fatalf("store holds %d records, want 2", s.Len())
	}
	// A key the store holds is not written again.
	if err := s.Put(contentKey(p, ms[0]), mustBuild(ms[0])); err != nil {
		t.Fatal(err)
	}
	if again := s.Stats(); again.Writes != 2 || again.Bytes != st.Bytes || again.Segments != 1 {
		t.Fatalf("re-put of a held key wrote: %+v, before %+v", again, st)
	}
	files := segmentFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("store files = %v, want one segment", files)
	}
	if info, err := os.Stat(filepath.Join(dir, files[0])); err != nil || info.Size() != st.Bytes {
		t.Fatalf("segment is %v bytes (%v), Stats().Bytes = %d", info.Size(), err, st.Bytes)
	}
}

// The point of segments: the number of files does not grow with the number
// of artifacts.
func TestStoreFewFilesForManyArtifacts(t *testing.T) {
	p, ms := testProgram(t, 1)
	dir := t.TempDir()
	s := mustStore(t, dir)
	g := mustBuild(ms[0])
	const n = 500
	for i := 0; i < n; i++ {
		k := contentKey(p, ms[0])
		k.Fingerprint = uint64(i)
		if err := s.Put(k, g); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	if files := segmentFiles(t, dir); len(files) > 8 {
		t.Fatalf("%d artifacts took %d files, want at most 8", n, len(files))
	}
	// A second handle indexes all of them from the segments.
	if s2 := mustStore(t, dir); s2.Len() != n {
		t.Fatalf("reopened store indexes %d records, want %d", s2.Len(), n)
	}
}

func TestStoreMissOnUnknownKey(t *testing.T) {
	p, ms := testProgram(t, 1)
	s := mustStore(t, t.TempDir())
	if _, ok := s.Load(contentKey(p, ms[0]), p, check.Basic); ok {
		t.Fatal("empty store returned a hit")
	}
	if st := s.Stats(); st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// Everything on disk is untrusted: corrupt bytes, stale versions, key
// mismatches, and well-formed-but-invalid graphs must all be quiet misses,
// each counted as one rejection — and the refused record must not stand in
// the way of the recompiled artifact.
func TestStoreRejectsBadFiles(t *testing.T) {
	p, ms := testProgram(t, 1)
	m := ms[0]
	g := mustBuild(m)
	k := contentKey(p, m)

	goodPayload, err := ir.EncodeJSON(g)
	if err != nil {
		t.Fatal(err)
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
	staleVersion := artifactRecord(k, goodPayload)
	binary.LittleEndian.PutUint16(staleVersion[4:], StoreVersion+1)
	binary.LittleEndian.PutUint32(staleVersion[crcOffset:], recordCRC(staleVersion))
	// Another key's record filed under k's hash: what a hash collision, or a
	// doctored header, looks like.
	otherKey := k
	otherKey.Fingerprint = 12345
	id, _ := artifactID(k)
	_, otherBytes := artifactID(otherKey)
	keyMismatch := appendRecord(nil, id, otherBytes, goodPayload)
	flipped := artifactRecord(k, goodPayload)
	flipped[len(flipped)-10] ^= 0x40

	cases := []struct {
		name string
		data []byte
	}{
		{"garbage", []byte("!!! these forty bytes are not a segment !!!")},
		{"truncated", artifactRecord(k, goodPayload[:40])},
		{"bit-flip", flipped},
		{"stale-version", staleVersion},
		{"key-mismatch", keyMismatch},
		{"undecodable-graph", artifactRecord(k, []byte(`{"method":"Nope.x"}`))},
		{"fails-check", artifactRecord(k, brokenGraph())},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			plantSegment(t, dir, "0000000000000001", tc.data)
			s := mustStore(t, dir)
			if _, ok := s.Load(k, p, check.Basic); ok {
				t.Fatalf("%s: corrupt record loaded as a hit", tc.name)
			}
			if st := s.Stats(); st.Rejected != 1 {
				t.Fatalf("%s: stats = %+v, want 1 rejection", tc.name, st)
			}
			if err := s.Put(k, g); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Load(k, p, check.Basic); !ok {
				t.Fatalf("%s: the refused record shadows the artifact put after it", tc.name)
			}
			if st := s.Stats(); st.Rejected != 1 || st.Writes != 1 {
				t.Fatalf("%s: stats after re-put = %+v", tc.name, st)
			}
			// And a restart finds the good record, not the bad one before it.
			if _, ok := mustStore(t, dir).Load(k, p, check.Basic); !ok {
				t.Fatalf("%s: reopened store does not load the re-put artifact", tc.name)
			}
		})
	}
}

// A crash can tear the last record of a segment at any byte. Whatever is
// left must open, give up every earlier record, miss the torn one without
// calling it corrupt, and take the torn key again.
func TestStoreTornTail(t *testing.T) {
	p, ms := testProgram(t, 3)
	var data []byte
	var keys []Key
	var graphs []*ir.Graph
	lastStart := 0
	for _, m := range ms {
		k, g := contentKey(p, m), mustBuild(m)
		keys, graphs = append(keys, k), append(graphs, g)
		lastStart = len(data)
		data = append(data, goodRecord(t, k, g)...)
	}
	root := t.TempDir()
	for cut := lastStart; cut < len(data); cut++ {
		dir := filepath.Join(root, fmt.Sprint(cut))
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		plantSegment(t, dir, "0000000000000001", data[:cut])
		s, err := NewStore(dir)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		for i := range keys[:2] {
			if _, ok := s.Load(keys[i], p, check.Basic); !ok {
				t.Fatalf("cut at %d: record %d, whole and before the tear, missed", cut, i)
			}
		}
		if _, ok := s.Load(keys[2], p, check.Basic); ok {
			t.Fatalf("cut at %d: torn record loaded", cut)
		}
		if st := s.Stats(); st.Misses != 1 || st.Rejected != 0 {
			t.Fatalf("cut at %d: stats = %+v, want the torn record a plain miss", cut, st)
		}
		if err := s.Put(keys[2], graphs[2]); err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if _, ok := s.Load(keys[2], p, check.Basic); !ok {
			t.Fatalf("cut at %d: torn key missed after being put again", cut)
		}
		s.Close()
		os.RemoveAll(dir)
	}
}

// FuzzSegmentScan feeds arbitrary bytes to the store as a segment another
// process left behind. Whatever they are, opening and loading must not
// panic, and a load may only hit on a record that really is stored under the
// key asked for.
func FuzzSegmentScan(f *testing.F) {
	a := bc.NewAssembler()
	c := a.Class("C", "")
	c.Method("m0", []bc.Kind{bc.KindInt}, bc.KindInt, true).Load(0).Const(1).Add().ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		f.Fatal(err)
	}
	m := p.ClassByName("C").MethodByName("m0")
	k := contentKey(p, m)
	other := k
	other.Fingerprint = 7
	payload, err := ir.EncodeJSON(mustBuild(m))
	if err != nil {
		f.Fatal(err)
	}
	good := artifactRecord(k, payload)
	id, keyBytes := artifactID(k)
	_, otherBytes := artifactID(other)

	f.Add([]byte{})
	f.Add([]byte("not a segment, but longer than a record header is"))
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(good[:headerSize+3])
	f.Add(append(append([]byte{}, good...), good[:50]...))
	f.Add(append(artifactRecord(other, payload), good...))
	f.Add(appendRecord(nil, id, otherBytes, payload)) // other's record under k's hash
	f.Add(artifactRecord(k, []byte(`{"method":"C.m0"}`)))
	huge := append([]byte{}, good...)
	binary.LittleEndian.PutUint32(huge[20:], 1<<31)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		plantSegment(t, dir, "0000000000000001", data)
		s, err := NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		for _, probe := range []struct {
			k   Key
			key []byte
		}{{k, keyBytes}, {other, otherBytes}} {
			pid, _ := artifactID(probe.k)
			at, indexed := s.index[pid]
			if _, ok := s.Load(probe.k, p, check.Basic); !ok {
				continue
			}
			if !indexed || at.off < 0 || at.off+at.n > int64(len(data)) {
				t.Fatalf("hit on %+v, which the scan placed at %+v of %d bytes", probe.k, at, len(data))
			}
			rec := data[at.off : at.off+at.n]
			h, ok := parseHeader(rec)
			if !ok || !bytes.Equal(rec[headerSize:headerSize+h.keyLen], probe.key) {
				t.Fatalf("hit on %+v from a record stored under another key", probe.k)
			}
		}
	})
}

// Two store handles (standing in for two processes) sharing one directory:
// each appends to its own segment, so concurrent writers and readers of the
// same keys must never observe partial records or corrupt loads, each handle
// finds what it wrote itself, and a handle opened afterwards finds what
// either wrote. Run under -race in CI.
func TestStoreSharedDirConcurrency(t *testing.T) {
	p, ms := testProgram(t, 5)
	dir := t.TempDir()
	s1 := mustStore(t, dir)
	s2 := mustStore(t, dir)
	graphs := make([]*ir.Graph, len(ms))
	keys := make([]Key, len(ms))
	for i, m := range ms {
		graphs[i] = mustBuild(m)
		keys[i] = contentKey(p, m)
	}
	// The last key is handle 1's alone.
	only := len(keys) - 1
	shared := keys[:only]

	const rounds = 50
	var wg sync.WaitGroup
	for _, s := range []*Store{s1, s2} {
		s := s
		wg.Add(2)
		go func() { // writer: put every key repeatedly
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				for i := range shared {
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
				for i := range shared {
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
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s1.Put(keys[only], graphs[only]); err != nil {
			t.Errorf("put: %v", err)
		}
	}()
	wg.Wait()
	for _, s := range []*Store{s1, s2} {
		if st := s.Stats(); st.Rejected != 0 {
			t.Fatalf("concurrent sharing produced rejections: %+v", st)
		}
	}
	// Each handle hits every key it wrote, and wrote each at most once.
	for h, s := range []*Store{s1, s2} {
		wrote := shared
		if s == s1 {
			wrote = keys
		}
		for i := range wrote {
			if _, ok := s.Load(wrote[i], p, check.Basic); !ok {
				t.Fatalf("handle %d misses key %d, which it wrote", h+1, i)
			}
		}
		if st := s.Stats(); st.Writes != int64(len(wrote)) {
			t.Fatalf("handle %d wrote %d records for %d keys", h+1, st.Writes, len(wrote))
		}
	}
	// A segment per handle that wrote.
	if files := segmentFiles(t, dir); len(files) > 2 {
		t.Fatalf("two handles left %v, want at most a segment each", files)
	}
	// A handle opened after both finds every key, whoever wrote it.
	s3 := mustStore(t, dir)
	for i := range keys {
		if _, ok := s3.Load(keys[i], p, check.Basic); !ok {
			t.Fatalf("key %d missing on a handle opened after the writers", i)
		}
	}
	if st := s3.Stats(); st.Rejected != 0 {
		t.Fatalf("reopening after concurrent writes produced rejections: %+v", st)
	}
}

// A handle reads the directory only when it is opened: a key another handle
// puts afterwards is a plain miss, found by no rescan, until the directory is
// opened again.
func TestStoreMissDoesNotReadTheDirectory(t *testing.T) {
	p, ms := testProgram(t, 1)
	k := contentKey(p, ms[0])
	dir := t.TempDir()
	a := mustStore(t, dir)
	b := mustStore(t, dir)
	if err := b.Put(k, mustBuild(ms[0])); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	before := a.Stats()
	if _, ok := a.Load(k, p, check.Basic); ok {
		t.Fatal("a handle found a record put after it was opened")
	}
	if st := a.Stats(); st.Misses != 1 || st.Segments != before.Segments || st.Bytes != before.Bytes {
		t.Fatalf("the miss looked at the directory: stats %+v, before %+v", st, before)
	}
	if _, ok := mustStore(t, dir).Load(k, p, check.Basic); !ok {
		t.Fatal("a handle opened after the put does not find the key")
	}
}

// A directory the previous store format wrote is not an error and not a
// source of anything: its files are never read, every load misses, and new
// artifacts go into segments beside them.
func TestStoreIgnoresVersion1Layout(t *testing.T) {
	p, ms := testProgram(t, 1)
	k, g := contentKey(p, ms[0]), mustBuild(ms[0])
	payload, err := ir.EncodeJSON(g)
	if err != nil {
		t.Fatal(err)
	}
	envelope, err := json.Marshal(map[string]any{"version": 1, "key": k, "graph": json.RawMessage(payload)})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	old := map[string][]byte{
		filepath.Join("3", "3f00000000000000.json"): envelope,
		"sum-0000000000000001.json":                 []byte(`{"version":1}`),
	}
	for rel, data := range old {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, rel)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, rel), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := mustStore(t, dir)
	if _, ok := s.Load(k, p, check.Basic); ok {
		t.Fatal("hit from a version-1 directory")
	}
	if st := s.Stats(); st.Misses != 1 || st.Rejected != 0 || s.Len() != 0 {
		t.Fatalf("stats = %+v, Len = %d; want plain misses", st, s.Len())
	}
	if err := s.Put(k, g); err != nil {
		t.Fatal(err)
	}
	s.SetMaxBytes(1) // the bound is over segments only
	for rel, data := range old {
		if got, err := os.ReadFile(filepath.Join(dir, rel)); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("version-1 file %s was touched: %v", rel, err)
		}
	}
	if files := segmentFiles(t, dir); len(files) != 2 {
		t.Fatalf("root holds %v, want the old summary file and one segment", files)
	}
}

func TestStoreClose(t *testing.T) {
	p, ms := testProgram(t, 2)
	s := mustStore(t, t.TempDir())
	if err := s.Put(contentKey(p, ms[0]), mustBuild(ms[0])); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Put(contentKey(p, ms[1]), mustBuild(ms[1])); err == nil {
		t.Fatal("Put on a closed store succeeded")
	}
	for _, m := range ms {
		if _, ok := s.Load(contentKey(p, m), p, check.Basic); ok {
			t.Fatal("closed store returned a hit")
		}
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Writes != 1 || st.Misses != 2 || st.Rejected != 0 {
		t.Fatalf("stats = %+v", st)
	}
	var none *Store
	if err := none.Close(); err != nil {
		t.Fatal(err)
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
	h := &Hooks{
		Resolver: p,
		Compile: func(m *bc.Method, k Key) (Artifact, error) {
			compiles++
			return mustBuild(m), nil
		},
	}
	b1 := New(Options{Store: store1})
	for _, m := range ms {
		b1.Submit(m, 1, contentKey(p, m), h)
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
	b2 := New(Options{Store: store2})
	var installed int
	counting := *h
	counting.Install = func(m *bc.Method, k Key, a Artifact, fromCache bool) {
		if !fromCache {
			t.Errorf("%s: disk replay reported fromCache=false", m.QualifiedName())
		}
		installed++
	}
	for _, m := range ms {
		b2.Submit(m, 1, contentKey(p, m), &counting)
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
		b2.Submit(m, 1, contentKey(p, m), h)
	}
	if st := b2.Stats(); st.CacheHits != int64(len(ms)) {
		t.Fatalf("memory tier not warmed by disk loads: %+v", st)
	}
}

// TestStoreEvictionDeterministicTieBreak pins the order in which the byte
// bound gives segments up: by name, which is by age — not by modification
// time or directory order — so two handles on one directory always expel the
// same segment; and never the segment the handle is writing.
func TestStoreEvictionDeterministicTieBreak(t *testing.T) {
	p, ms := testProgram(t, 4)
	dir := t.TempDir()
	names := []string{"0000000000000001", "0000000000000002", "0000000000000003"}
	var total int64
	for i, name := range names {
		rec := goodRecord(t, contentKey(p, ms[i]), mustBuild(ms[i]))
		plantSegment(t, dir, name, rec)
		total += int64(len(rec))
		// Modification times run against the names.
		when := time.Now().Add(time.Duration(-i) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, name+segExt), when, when); err != nil {
			t.Fatal(err)
		}
	}
	s := mustStore(t, dir)
	held := func() []bool {
		out := make([]bool, len(ms))
		for i, m := range ms {
			id, _ := artifactID(contentKey(p, m))
			_, out[i] = s.index[id]
		}
		return out
	}
	if got := fmt.Sprint(held()); got != "[true true true false]" {
		t.Fatalf("indexed %s after open", got)
	}
	s.SetMaxBytes(total - 1)
	if got := fmt.Sprint(held()); got != "[false true true false]" {
		t.Fatalf("after the first expulsion the index holds %s, want the lowest name gone", got)
	}
	if _, err := os.Stat(filepath.Join(dir, names[0]+segExt)); err == nil {
		t.Fatal("expelled segment is still on disk")
	}

	// The handle's own open segment outlives any bound.
	s.SetMaxBytes(0)
	if err := s.Put(contentKey(p, ms[3]), mustBuild(ms[3])); err != nil {
		t.Fatal(err)
	}
	s.SetMaxBytes(1)
	if got := fmt.Sprint(held()); got != "[false false false true]" {
		t.Fatalf("under a one-byte bound the index holds %s, want only the open segment's record", got)
	}
	if _, ok := s.Load(contentKey(p, ms[3]), p, check.Basic); !ok {
		t.Fatal("record in the open segment does not load")
	}
	st := s.Stats()
	if st.Expelled != 3 || st.Segments != 1 || len(segmentFiles(t, dir)) != 1 {
		t.Fatalf("stats = %+v, files = %v", st, segmentFiles(t, dir))
	}
}

// BenchmarkStorePut measures one persist of a never-seen key: what a cold
// server pays per compiled method.
func BenchmarkStorePut(b *testing.B) {
	a := bc.NewAssembler()
	a.Class("C", "").Method("m0", []bc.Kind{bc.KindInt}, bc.KindInt, true).Load(0).Const(1).Add().ReturnValue()
	p, err := a.Finish("")
	if err != nil {
		b.Fatal(err)
	}
	m := p.ClassByName("C").MethodByName("m0")
	g := mustBuild(m)
	s, err := NewStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	k := contentKey(p, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.Fingerprint = uint64(i)
		if err := s.Put(k, g); err != nil {
			b.Fatal(err)
		}
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
