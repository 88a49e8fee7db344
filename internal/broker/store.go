package broker

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"pea/internal/bc"
	"pea/internal/check"
	"pea/internal/ir"
	"pea/internal/summary"
)

// StoreVersion is the on-disk envelope format version. Bump it whenever
// the envelope or the ir JSON payload changes incompatibly; files written
// under any other version are treated as misses, never decoded.
const StoreVersion = 1

// envelope is the on-disk artifact file: the format version, the full
// content-addressed key the artifact was compiled under, and the
// ir.EncodeJSON payload. The key is stored in full (not just its hash) so
// a filename collision between two different keys is detected by
// comparison instead of silently replaying the wrong artifact.
type envelope struct {
	Version int             `json:"version"`
	Key     Key             `json:"key"`
	Graph   json.RawMessage `json:"graph"`
}

// StoreStats counts store traffic with atomics (the store is shared by
// broker workers and, through the directory, by other processes).
type StoreStats struct {
	Hits        int64 // artifacts loaded, verified, and returned
	Misses      int64 // no file for the key
	Rejected    int64 // file present but refused (corrupt, stale version, key mismatch, failed check)
	Writes      int64 // artifacts persisted
	WriteErrors int64 // failed persist attempts (artifact stays cached in memory only)
	// Expelled counts files deleted by the MaxBytes size bound
	// (oldest-modification-time first).
	Expelled int64
	// SummaryHits/Misses/Writes count inter-procedural summary-set traffic
	// (one file per program fingerprint, alongside the code artifacts).
	// Rejected summary files — corrupt, stale version, or failing
	// summary.DecodeJSON's validation — count under Rejected above.
	SummaryHits   int64
	SummaryMisses int64
	SummaryWrites int64
}

// Store is a disk-backed, content-addressed artifact store behind the
// in-memory code cache. Each artifact is one JSON envelope file named by
// the hash of its key, written atomically (temp file + rename on the same
// filesystem), so any number of processes can share one store directory:
// readers never observe a partial file, and concurrent writers of the same
// key race benignly (last rename wins; both files hold equivalent content
// because keys are content-addressed).
//
// Artifacts are spread over 16 shard directories named by the first hex
// digit of that hash (dir/3/3f….json), each made when its first artifact is
// written; only the per-program summary sets live in the root. The shards
// keep the write path steady: a cold server creates a file per compiled
// method, and in one flat directory a create cost 10 µs or 300–500 µs — as
// much as compiling a small method — depending on what had lately been
// created and deleted beside it (ext4 without a journal steps over recently
// freed inodes one at a time), so the server's cold throughput swung by a
// fifth with the directory's history. Sixteen directories were enough to
// take the swing out; 256 did no better and cost a small store (a few
// hundred artifacts) more in mkdirs than it had cost in writes.
//
// Everything read back is treated as untrusted input — the trust-boundary
// stance the GraalVM IR formal-semantics work argues for: the envelope
// must parse, carry the current version, and echo the exact key; the graph
// must decode against the local program (every class/field/method name
// resolving) and pass the install-boundary check pass at Basic or the
// configured level, whichever is stricter. Any failure is a cache miss,
// never an error the compile path has to handle and never a crash.
//
// A nil *Store is valid and always misses.
type Store struct {
	dir string
	// maxBytes, when positive, bounds the total size of .json files in the
	// store; writes that push the directory over the bound expel the
	// oldest-modified files until it fits again (the persisted-cache
	// equivalent of the memory cache's LRU — mtime approximates recency
	// because loads do not touch files). evictMu serializes the enforcement
	// scan; concurrent expellers would redundantly stat and double-count.
	maxBytes atomic.Int64
	evictMu  sync.Mutex
	stats    struct {
		hits          atomic.Int64
		misses        atomic.Int64
		rejected      atomic.Int64
		writes        atomic.Int64
		writeErrors   atomic.Int64
		expelled      atomic.Int64
		summaryHits   atomic.Int64
		summaryMisses atomic.Int64
		summaryWrites atomic.Int64
	}
}

// NewStore opens (creating if needed) a store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("broker: opening artifact store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// path returns the artifact filename for k, inside its shard directory: a
// 64-bit FNV-1a hash over every key field, sharded by its first hex digit. Collisions are harmless — Load
// compares the envelope's full key — they just alias two artifacts onto one
// file slot.
func (s *Store) path(k Key) string {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], k.MethodFP)
	h.Write(b[:])
	h.Write([]byte(k.Name))
	binary.LittleEndian.PutUint64(b[:], uint64(int64(k.Mode)))
	h.Write(b[:])
	if k.Spec {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	binary.LittleEndian.PutUint64(b[:], k.Fingerprint)
	h.Write(b[:])
	binary.LittleEndian.PutUint64(b[:], uint64(int64(k.EntryBCI)))
	h.Write(b[:])
	h.Write([]byte(k.Backend))
	if k.Summaries {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	sum := h.Sum64()
	return filepath.Join(s.dir, fmt.Sprintf("%x", sum>>60), fmt.Sprintf("%016x.json", sum))
}

// Put persists the scheduled graph compiled under k. The write is atomic
// (temp + rename); a failure leaves no partial file behind and is reported
// to the caller, who typically just counts it — the artifact is still in
// the in-memory cache, the store is an optimization, not a durability
// contract.
func (s *Store) Put(k Key, g *ir.Graph) error {
	if s == nil {
		return nil
	}
	err := s.put(k, g)
	if err != nil {
		s.stats.writeErrors.Add(1)
		return err
	}
	s.stats.writes.Add(1)
	return nil
}

func (s *Store) put(k Key, g *ir.Graph) error {
	payload, err := ir.EncodeJSON(g)
	if err != nil {
		return fmt.Errorf("broker: encoding artifact %s: %w", k.Name, err)
	}
	data, err := json.Marshal(&envelope{Version: StoreVersion, Key: k, Graph: payload})
	if err != nil {
		return fmt.Errorf("broker: marshaling envelope %s: %w", k.Name, err)
	}
	if err := s.atomicWrite(s.path(k), data); err != nil {
		return fmt.Errorf("broker: persisting %s: %w", k.Name, err)
	}
	s.enforceMaxBytes()
	return nil
}

// atomicWrite writes data to final via a temp file beside it and a rename,
// so concurrent readers never observe a partial file. final's directory (a
// shard) is created if this is its first file.
func (s *Store) atomicWrite(final string, data []byte) error {
	dir := filepath.Dir(final)
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.Mkdir(dir, 0o755); err == nil || errors.Is(err, fs.ErrExist) {
			tmp, err = os.CreateTemp(dir, ".tmp-*")
		}
	}
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return err
	}
	return nil
}

// SetMaxBytes bounds the total size of the store's .json files (code
// artifacts and summary sets alike). When a write pushes the directory over
// the bound, the oldest-modified files are expelled until it fits — the
// disk tier's LRU, with modification time approximating recency. n <= 0
// (the default) leaves the store unbounded. Safe to call at any time; the
// bound applies from the next write.
func (s *Store) SetMaxBytes(n int64) {
	if s == nil {
		return
	}
	s.maxBytes.Store(n)
	s.enforceMaxBytes()
}

// enforceMaxBytes expels oldest-modified .json files until the store fits
// its byte bound. Failures are ignored: eviction is best-effort hygiene,
// and a file another process already removed simply stops counting.
func (s *Store) enforceMaxBytes() {
	max := s.maxBytes.Load()
	if max <= 0 {
		return
	}
	s.evictMu.Lock()
	defer s.evictMu.Unlock()
	type file struct {
		name  string // relative to s.dir
		size  int64
		mtime int64
	}
	var files []file
	var total int64
	s.each(func(rel string, e fs.DirEntry) {
		info, err := e.Info()
		if err != nil {
			return
		}
		files = append(files, file{rel, info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
	})
	if total <= max {
		return
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mtime != files[j].mtime {
			return files[i].mtime < files[j].mtime
		}
		return files[i].name < files[j].name // deterministic tie-break
	})
	for _, f := range files {
		if total <= max {
			break
		}
		if os.Remove(filepath.Join(s.dir, f.name)) == nil {
			total -= f.size
			s.stats.expelled.Add(1)
		}
	}
}

// sumPath is the summary-set filename for a program fingerprint. One file
// serves the whole program: summaries are whole-program analysis (CHA,
// bottom-up SCC fixpoint), so per-method files would be incoherent.
func (s *Store) sumPath(fp uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("sum-%016x.json", fp))
}

// PutSummaries persists the program's summary set. The payload is
// summary.EncodeJSON's self-validating form (format version + program
// fingerprint + per-method fingerprints), so no extra envelope is needed.
func (s *Store) PutSummaries(p *bc.Program, set *summary.Set) error {
	if s == nil || set == nil {
		return nil
	}
	data, err := set.EncodeJSON()
	if err != nil {
		s.stats.writeErrors.Add(1)
		return fmt.Errorf("broker: encoding summaries: %w", err)
	}
	if err := s.atomicWrite(s.sumPath(p.Fingerprint()), data); err != nil {
		s.stats.writeErrors.Add(1)
		return fmt.Errorf("broker: persisting summaries: %w", err)
	}
	s.stats.summaryWrites.Add(1)
	s.enforceMaxBytes()
	return nil
}

// LoadSummaries returns the persisted summary set for p, or (nil, false).
// Everything read back is untrusted: summary.DecodeJSON rejects version or
// fingerprint mismatches, arity mismatches, and out-of-range lattice
// values, so a stale or tampered file is a miss, never a wrong analysis.
func (s *Store) LoadSummaries(p *bc.Program) (*summary.Set, bool) {
	if s == nil || p == nil {
		return nil, false
	}
	data, err := os.ReadFile(s.sumPath(p.Fingerprint()))
	if err != nil {
		s.stats.summaryMisses.Add(1)
		return nil, false
	}
	set, err := summary.DecodeJSON(data, p)
	if err != nil {
		s.stats.rejected.Add(1)
		s.stats.summaryMisses.Add(1)
		return nil, false
	}
	s.stats.summaryHits.Add(1)
	return set, true
}

// Load returns the verified graph stored under k, decoded against r's
// program, or (nil, false) — there is no error: a missing, corrupt, stale,
// or unverifiable file is indistinguishable from a cold cache by design.
// lvl is the broker's configured check level; loads are always verified at
// least at check.Basic regardless (and the PEA_CHECK floor applies on top).
func (s *Store) Load(k Key, r ir.Resolver, lvl check.Level) (*ir.Graph, bool) {
	if s == nil || r == nil {
		return nil, false
	}
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		s.stats.misses.Add(1)
		return nil, false
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		s.stats.rejected.Add(1)
		return nil, false
	}
	if env.Version != StoreVersion || env.Key != k {
		s.stats.rejected.Add(1)
		return nil, false
	}
	g, err := ir.DecodeJSON(env.Graph, r)
	if err != nil {
		s.stats.rejected.Add(1)
		return nil, false
	}
	if err := check.Graph(g, check.Effective(check.Max(lvl, check.Basic))); err != nil {
		s.stats.rejected.Add(1)
		return nil, false
	}
	s.stats.hits.Add(1)
	return g, true
}

// Len returns the number of artifact files currently in the store.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	n := 0
	s.each(func(string, fs.DirEntry) { n++ })
	return n
}

// each calls f for every .json file of the store, named relative to the
// root: the summary sets in the root itself and the code artifacts one level
// down in their shard directories. Directories that cannot be read (or that
// another process removed meanwhile) are skipped.
func (s *Store) each(f func(rel string, e fs.DirEntry)) {
	visit := func(sub string) []fs.DirEntry {
		ents, _ := os.ReadDir(filepath.Join(s.dir, sub))
		var dirs []fs.DirEntry
		for _, e := range ents {
			if e.IsDir() {
				dirs = append(dirs, e)
			} else if filepath.Ext(e.Name()) == ".json" {
				f(filepath.Join(sub, e.Name()), e)
			}
		}
		return dirs
	}
	for _, shard := range visit("") {
		visit(shard.Name())
	}
}

// Stats snapshots the store counters.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	return StoreStats{
		Hits:          s.stats.hits.Load(),
		Misses:        s.stats.misses.Load(),
		Rejected:      s.stats.rejected.Load(),
		Writes:        s.stats.writes.Load(),
		WriteErrors:   s.stats.writeErrors.Load(),
		Expelled:      s.stats.expelled.Load(),
		SummaryHits:   s.stats.summaryHits.Load(),
		SummaryMisses: s.stats.summaryMisses.Load(),
		SummaryWrites: s.stats.summaryWrites.Load(),
	}
}
