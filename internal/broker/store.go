package broker

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pea/internal/check"
	"pea/internal/ir"
)

// StoreVersion is the on-disk record format version, carried in every
// record header. Bump it whenever the frame, the key encoding or the ir
// JSON payload changes incompatibly; a record of any other version ends
// the scan of its segment and is never decoded.
const StoreVersion = 3

// The segment file format. A segment is a sequence of records, each a fixed
// little-endian header followed by the key and the payload:
//
//	 0  magic "PEAS"
//	 4  version  u16   StoreVersion
//	 6  kind     u8    kindArtifact
//	 7  zero     u8
//	 8  hash     u64   hashKey(key): the index key
//	16  keyLen   u32
//	20  payLen   u32
//	24  crc      u32   CRC-32C of bytes [0,24), the key and the payload
//	28  key      appendKey's encoding
//	    payload  ir.EncodeJSON bytes
const (
	segMagic   = "PEAS"
	segExt     = ".seg"
	headerSize = 28
	crcOffset  = 24

	kindArtifact = 1

	// segmentBytes is the size at which a handle stops appending to its
	// segment and starts the next: large enough that a store of a few
	// hundred megabytes is a handful of files, small enough that the byte
	// bound (which expels whole segments) works in useful steps.
	segmentBytes = 64 << 20
	// boundSegments is how many segments a byte bound is divided into: with
	// a bound set a handle rolls at bound/boundSegments, so that expelling
	// the oldest segment gives up a quarter of the store, not all of it.
	boundSegments = 4
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

var errStoreClosed = errors.New("store is closed")

// StoreStats counts store traffic with atomics (the store is shared by
// broker workers).
type StoreStats struct {
	Hits        int64 // artifacts loaded, verified, and returned
	Misses      int64 // no record for the key
	Rejected    int64 // bytes read back and refused (unrecognisable record, stale version, bad CRC, key mismatch, failed decode or check)
	Writes      int64 // artifacts persisted
	WriteErrors int64 // failed persist attempts (artifact stays cached in memory only)
	// Expelled counts records this handle dropped, with their segments, to
	// keep the store inside its MaxBytes bound (oldest segment first).
	Expelled int64
	// Segments and Bytes are the segment files this handle knows of — those
	// in the directory at open and those it created, less the expelled — and
	// their total size.
	Segments int
	Bytes    int64
}

// Store is a disk-backed, content-addressed artifact store behind the
// in-memory code cache. It keeps artifacts in a few append-only segment
// files instead of one file each: creating a file costs a cold server more
// than compiling a small method does, appending a record costs one write(2).
//
// A handle finds records through an in-memory index, key hash → (segment,
// offset, length), built by scanning every segment once at NewStore; after
// that only the handle's own appends, rejections and expulsions change it,
// and a miss costs one map read. A handle sees what was in the directory
// when it was opened, plus what it has written itself. A record enters the
// index only when its whole length is there and its CRC checks; a tail torn
// by a crash is a clean miss, and anything unrecognisable ends the scan of
// that segment.
//
// Each handle appends only to its own segment, which it creates exclusively
// at its first Put (a handle that only reads creates nothing) and opens
// O_APPEND; at segmentBytes it starts another. Two handles on one directory
// therefore never interleave writes, and no handle ever rewrites a byte
// another has read; one sees the other's new records only once it is
// reopened.
//
// Everything read back is treated as untrusted input — the trust-boundary
// stance the GraalVM IR formal-semantics work argues for: the record must
// carry the current version and echo the exact key (the index holds only
// its hash); the graph must decode against the local program (every
// class/field/method name resolving) and pass the install-boundary check
// pass at Basic or the configured level, whichever is stricter. Any failure
// is a cache miss, never an error the compile path has to handle and never
// a crash; the refused record leaves the index, so the recompiled artifact
// is appended and found in its place from then on.
//
// A nil *Store is valid and always misses.
type Store struct {
	dir string
	// maxBytes, when positive, bounds the total size of the segments; see
	// SetMaxBytes.
	maxBytes atomic.Int64

	// mu guards the fields below. Lookups hold it shared; appends,
	// rejections and expulsions hold it exclusively.
	mu    sync.RWMutex
	index map[recordID]location
	segs  map[string]*segment // every segment known, by file name
	w     *segment            // this handle's open segment; nil until the first Put, and after a failed write
	bytes int64               // sum of the segments' sizes
	frame []byte              // append's record buffer, reused
	// closed makes every later lookup a miss and every later Put an error.
	closed bool

	stats struct {
		hits        atomic.Int64
		misses      atomic.Int64
		rejected    atomic.Int64
		writes      atomic.Int64
		writeErrors atomic.Int64
		expelled    atomic.Int64
	}
}

// recordID is the index key: the record kind and the hash of its key.
// Collisions are harmless — a load compares the record's full key — they
// just alias two keys onto one index slot, of which the later put wins.
type recordID struct {
	kind uint8
	hash uint64
}

// location is where a whole record (header included) lies.
type location struct {
	seg *segment
	off int64
	n   int64
}

type segment struct {
	name string
	f    *os.File
	size int64 // the file's length at open, or as this handle has written it
}

// header is a decoded record header.
type header struct {
	kind   uint8
	hash   uint64
	keyLen int64
	payLen int64
	crc    uint32
}

func (h header) size() int64 { return headerSize + h.keyLen + h.payLen }

// parseHeader decodes b[:headerSize], refusing anything that is not the
// header of a current-version record.
func parseHeader(b []byte) (header, bool) {
	if string(b[:4]) != segMagic || binary.LittleEndian.Uint16(b[4:]) != StoreVersion || b[7] != 0 {
		return header{}, false
	}
	h := header{
		kind:   b[6],
		hash:   binary.LittleEndian.Uint64(b[8:]),
		keyLen: int64(binary.LittleEndian.Uint32(b[16:])),
		payLen: int64(binary.LittleEndian.Uint32(b[20:])),
		crc:    binary.LittleEndian.Uint32(b[crcOffset:]),
	}
	return h, h.kind == kindArtifact
}

// recordCRC is the checksum a whole record must carry in its header.
func recordCRC(rec []byte) uint32 {
	return crc32.Update(crc32.Checksum(rec[:crcOffset], crcTable), crcTable, rec[headerSize:])
}

// appendRecord appends the record (id, key, payload) to b.
func appendRecord(b []byte, id recordID, key, payload []byte) []byte {
	start := len(b)
	b = append(b, segMagic...)
	b = binary.LittleEndian.AppendUint16(b, StoreVersion)
	b = append(b, id.kind, 0)
	b = binary.LittleEndian.AppendUint64(b, id.hash)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = append(b, 0, 0, 0, 0)
	b = append(b, key...)
	b = append(b, payload...)
	binary.LittleEndian.PutUint32(b[start+crcOffset:], recordCRC(b[start:]))
	return b
}

// appendKey appends k's canonical encoding to b: every field, the one
// variable-length field that is not last behind its length, so two keys
// encode alike only if they are equal. It is what a record stores as its
// key, what a load compares, and what hashKey indexes.
func appendKey(b []byte, k Key) []byte {
	b = binary.LittleEndian.AppendUint64(b, k.MethodFP)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(k.Mode)))
	b = binary.LittleEndian.AppendUint64(b, k.Fingerprint)
	b = binary.LittleEndian.AppendUint64(b, uint64(int64(k.EntryBCI)))
	var spec byte
	if k.Spec {
		spec = 1
	}
	b = append(b, spec)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(k.Name)))
	b = append(b, k.Name...)
	return append(b, k.Backend...)
}

// hashKey is 64-bit FNV-1a, stable across processes.
func hashKey(key []byte) uint64 {
	h := fnv.New64a()
	h.Write(key)
	return h.Sum64()
}

func artifactID(k Key) (recordID, []byte) {
	key := appendKey(make([]byte, 0, 96), k)
	return recordID{kindArtifact, hashKey(key)}, key
}

// NewStore opens (creating if needed) a store rooted at dir and indexes the
// segments already there. It is the only time the handle reads the
// directory. Anything else in it — the one file per artifact of StoreVersion
// 1, say — is neither read nor touched. Segments that cannot be opened or
// read are skipped; they stay cold.
func NewStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("broker: opening artifact store: %w", err)
	}
	ents, err := os.ReadDir(dir) // sorted by name, which is by age
	if err != nil {
		return nil, fmt.Errorf("broker: opening artifact store: %w", err)
	}
	s := &Store{dir: dir, index: make(map[recordID]location), segs: make(map[string]*segment)}
	for _, e := range ents {
		name := e.Name()
		if !e.Type().IsRegular() || filepath.Ext(name) != segExt {
			continue
		}
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			continue
		}
		seg := &segment{name: name, f: f, size: info.Size()}
		s.segs[name] = seg
		s.bytes += seg.size
		s.scan(seg)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// Close releases the segment descriptors. Afterwards every load misses and
// every Put fails (counted in WriteErrors); the counters stay readable.
func (s *Store) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	for _, seg := range s.segs {
		// Only the written segment's Close can report something new (a
		// deferred write error); the others were only read.
		if cerr := seg.f.Close(); cerr != nil && seg == s.w {
			err = fmt.Errorf("broker: closing artifact store: %w", cerr)
		}
	}
	s.w = nil
	return err
}

// scan indexes the artifact records of seg, a segment found at open. It
// stops before a record whose length runs past the size the segment had then
// — a torn tail, or a write in flight — and at bytes that are not a record of
// this version or whose CRC fails, counting one rejection. A later record for
// an id replaces an earlier one.
func (s *Store) scan(seg *segment) {
	r := bufio.NewReaderSize(io.NewSectionReader(seg.f, 0, seg.size), 1<<16)
	var hdr [headerSize]byte
	var rec []byte
	for off := int64(0); seg.size-off >= headerSize; off += int64(len(rec)) {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		h, ok := parseHeader(hdr[:])
		if ok {
			if h.size() > seg.size-off {
				return
			}
			if int64(cap(rec)) < h.size() {
				rec = make([]byte, h.size())
			}
			rec = rec[:h.size()]
			copy(rec, hdr[:])
			if _, err := io.ReadFull(r, rec[headerSize:]); err != nil {
				return
			}
			ok = recordCRC(rec) == h.crc
		}
		if !ok {
			s.stats.rejected.Add(1)
			return
		}
		s.index[recordID{h.kind, h.hash}] = location{seg, off, h.size()}
	}
}

// forget drops seg, which the byte bound has expelled (never the segment
// being written), and every index entry into it, returning how many. Caller
// holds mu exclusively.
func (s *Store) forget(seg *segment) int {
	n := 0
	for id, at := range s.index {
		if at.seg == seg {
			delete(s.index, id)
			n++
		}
	}
	seg.f.Close() // a load in flight sees a read error and refuses the record
	delete(s.segs, seg.name)
	s.bytes -= seg.size
	return n
}

// lookup finds id in the index.
func (s *Store) lookup(id recordID) (location, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	at, ok := s.index[id]
	return at, ok && !s.closed
}

// read returns the payload of the record at at if it is a whole
// current-version record whose CRC checks and which was stored under
// exactly id and key.
func (s *Store) read(at location, id recordID, key []byte) ([]byte, bool) {
	rec := make([]byte, at.n)
	if _, err := at.seg.f.ReadAt(rec, at.off); err != nil {
		return nil, false
	}
	h, ok := parseHeader(rec)
	if !ok || h.size() != at.n || recordCRC(rec) != h.crc || (recordID{h.kind, h.hash}) != id {
		return nil, false
	}
	payload := rec[headerSize+h.keyLen:]
	return payload, bytes.Equal(rec[headerSize:headerSize+h.keyLen], key)
}

// reject counts a refused record and takes it out of the index, so that the
// next Put of its key is appended instead of being taken for a repeat.
func (s *Store) reject(id recordID, at location) {
	s.stats.rejected.Add(1)
	s.mu.Lock()
	if s.index[id] == at {
		delete(s.index, id)
	}
	s.mu.Unlock()
}

// append writes the record (id, key, payload) to this handle's segment with
// one write(2) and indexes it, unless the index already holds id: keys are
// content-addressed, so a second record would say the same. It reports
// whether it wrote.
func (s *Store) append(id recordID, key, payload []byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, errStoreClosed
	}
	if _, ok := s.index[id]; ok {
		return false, nil
	}
	n := int64(headerSize + len(key) + len(payload))
	if n > segmentBytes {
		return false, fmt.Errorf("record of %d bytes exceeds the segment size", n)
	}
	if s.w != nil && s.w.size > 0 && s.w.size+n > s.rollBytes() {
		s.w = nil // stays in segs, read-only from here on
	}
	if s.w == nil {
		seg, err := s.newSegment()
		if err != nil {
			return false, err
		}
		s.segs[seg.name] = seg
		s.w = seg
	}
	s.frame = appendRecord(s.frame[:0], id, key, payload)
	wrote, err := s.w.f.Write(s.frame)
	s.w.size += int64(wrote)
	s.bytes += int64(wrote)
	if err != nil {
		// What did get written is a torn record that any scan stops at, so
		// nothing may follow it: the next Put starts a new segment.
		s.w = nil
		return false, err
	}
	s.index[id] = location{s.w, s.w.size - n, n}
	s.expelLocked()
	return true, nil
}

// rollBytes is the size a segment may reach before the handle starts
// another.
func (s *Store) rollBytes() int64 {
	if max := s.maxBytes.Load(); max > 0 && max/boundSegments < segmentBytes {
		return max / boundSegments
	}
	return segmentBytes
}

// newSegment creates this handle's next segment. The name is the creation
// time, so names sort by age; O_EXCL makes two handles that pick the same
// nanosecond take different files.
func (s *Store) newSegment() (*segment, error) {
	for t := time.Now().UnixNano(); ; t++ {
		name := fmt.Sprintf("%016x%s", t, segExt)
		f, err := os.OpenFile(filepath.Join(s.dir, name), os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue
		}
		if err != nil {
			return nil, err
		}
		return &segment{name: name, f: f}, nil
	}
}

// SetMaxBytes bounds the total size of the store's segments. When a write
// pushes the store over the bound, whole segments are expelled, oldest
// first, until it fits — the disk tier's LRU, with age standing in for
// recency — except the segment this handle is writing, so the bound holds
// to within one segment; to keep that slack small a bounded handle rolls at
// a quarter of the bound. n <= 0 (the default) leaves the store unbounded.
// Safe to call at any time.
func (s *Store) SetMaxBytes(n int64) {
	if s == nil {
		return
	}
	s.maxBytes.Store(n)
	s.mu.Lock()
	s.expelLocked()
	s.mu.Unlock()
}

// expelLocked deletes oldest segments until the store fits its byte bound.
// A segment that cannot be deleted is kept and goes on counting. Caller
// holds mu exclusively.
func (s *Store) expelLocked() {
	max := s.maxBytes.Load()
	if max <= 0 || s.bytes <= max {
		return
	}
	names := make([]string, 0, len(s.segs))
	for name := range s.segs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if s.bytes <= max {
			return
		}
		seg := s.segs[name]
		if seg == s.w {
			continue
		}
		if err := os.Remove(filepath.Join(s.dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) {
			continue
		}
		s.stats.expelled.Add(int64(s.forget(seg)))
	}
}

// Put persists the scheduled graph compiled under k, unless the store
// already holds k. A failure is reported to the caller, who typically just
// counts it — the artifact is still in the in-memory cache, the store is an
// optimization, not a durability contract.
func (s *Store) Put(k Key, g *ir.Graph) error {
	if s == nil {
		return nil
	}
	id, key := artifactID(k)
	// append checks again under its lock; looking first saves the encode.
	if _, held := s.lookup(id); held {
		return nil
	}
	payload, err := ir.EncodeJSON(g)
	if err != nil {
		s.stats.writeErrors.Add(1)
		return fmt.Errorf("broker: encoding artifact %s: %w", k.Name, err)
	}
	wrote, err := s.append(id, key, payload)
	if err != nil {
		s.stats.writeErrors.Add(1)
		return fmt.Errorf("broker: persisting %s: %w", k.Name, err)
	}
	if wrote {
		s.stats.writes.Add(1)
	}
	return nil
}

// Load returns the verified graph stored under k, decoded against r's
// program, or (nil, false) — there is no error: a missing, corrupt, stale,
// or unverifiable record is indistinguishable from a cold cache by design.
// lvl is the broker's configured check level; loads are always verified at
// least at check.Basic regardless (and the PEA_CHECK floor applies on top).
func (s *Store) Load(k Key, r ir.Resolver, lvl check.Level) (*ir.Graph, bool) {
	if s == nil || r == nil {
		return nil, false
	}
	id, key := artifactID(k)
	at, ok := s.lookup(id)
	if !ok {
		s.stats.misses.Add(1)
		return nil, false
	}
	var g *ir.Graph
	payload, ok := s.read(at, id, key)
	if ok {
		var err error
		g, err = ir.DecodeJSON(payload, r)
		ok = err == nil && check.Graph(g, check.Effective(check.Max(lvl, check.Basic))) == nil
	}
	if !ok {
		s.reject(id, at)
		return nil, false
	}
	s.stats.hits.Add(1)
	return g, true
}

// Len returns the number of artifact records this handle's index holds.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.index)
}

// Stats snapshots the store counters.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	s.mu.RLock()
	segments, size := len(s.segs), s.bytes
	s.mu.RUnlock()
	return StoreStats{
		Hits:        s.stats.hits.Load(),
		Misses:      s.stats.misses.Load(),
		Rejected:    s.stats.rejected.Load(),
		Writes:      s.stats.writes.Load(),
		WriteErrors: s.stats.writeErrors.Load(),
		Expelled:    s.stats.expelled.Load(),
		Segments:    segments,
		Bytes:       size,
	}
}
