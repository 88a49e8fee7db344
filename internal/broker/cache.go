package broker

import (
	"sync"
	"sync/atomic"
	"unsafe"

	"pea/internal/ir"
)

// Key identifies one compilation product. Two compiles with equal keys are
// guaranteed to produce interchangeable code:
//
//   - MethodFP is the content fingerprint of the method within its linked
//     program (bc.Program.MethodFingerprint): a stable hash over the whole
//     program's bytecode plus the method's qualified name and signature.
//     Hashing the whole program (not just the one method) is what makes
//     the key sound under inlining — an artifact may embed any reachable
//     callee body, so any program change must produce a fresh key. Because
//     the fingerprint is derived from content, not pointer identity, equal
//     keys arise across independent links of the same source and across
//     process restarts, which is what lets artifacts persist on disk and
//     be shared between processes.
//   - Name is the method's qualified name ("Class.method"). It is
//     redundant with MethodFP for equality (the fingerprint already covers
//     it) but kept in the key so that cache entries, persisted records,
//     and diagnostics remain self-describing, and so that a fingerprint
//     collision between two different methods cannot alias silently.
//   - Mode is the escape-analysis configuration ordinal (vm.EAMode). Code
//     compiled under EA or PEA embeds inter-procedural summary facts
//     (kept-virtual call arguments); the summaries are a function of the
//     program's bytecode, which MethodFP already covers, so they need no
//     component of their own.
//   - Spec records whether speculative branch pruning was applied. A
//     method invalidated by deoptimization recompiles under Spec=false,
//     which is a different key — the non-speculative artifact is cached
//     separately and replayed on later invalidations instead of re-running
//     the pipeline.
//   - Fingerprint condenses the profile information the pipeline consumes:
//     the branch-pruning verdicts of a speculative compile (see
//     interp.Profile.Fingerprint). Profiles that would drive the pruner to
//     different decisions hash differently, so stale speculative code is
//     never replayed. A non-speculative compile (Spec=false) reads no
//     profile, so its Fingerprint is always 0: the key is computable before
//     the method has ever run, which is what lets a VM install a cached
//     artifact at the method's first call (Broker.Cached).
//   - EntryBCI distinguishes on-stack-replacement compilations: NoOSR for
//     a regular method compile, or the loop-header bytecode index of the
//     alternate OSR entry. OSR artifacts for different headers of the same
//     method coexist in the cache alongside the standard compile.
//   - Backend names the execution backend the artifact was lowered for
//     ("oracle", "closure"; empty when the caller caches plain graphs).
//     Artifacts lowered by one backend are never replayed into a VM
//     running another.
//
// The key holds no pointers, so its encoding in a persisted record (see
// Store) means the same in every process.
type Key struct {
	MethodFP    uint64
	Name        string
	Mode        int
	Spec        bool
	Fingerprint uint64
	EntryBCI    int
	Backend     string
}

// NoOSR is the EntryBCI value of a regular (method-entry) compilation.
// BCI 0 cannot be used as the sentinel: a loop header at pc 0 is a legal
// OSR entry.
const NoOSR = -1

// IsOSR reports whether the key identifies an on-stack-replacement compile.
func (k Key) IsOSR() bool { return k.EntryBCI >= 0 }

// Artifact is one compilation product: at minimum the scheduled graph it
// was built from (for install-boundary verification and tools), typically a
// backend-lowered executable wrapping it. *ir.Graph itself satisfies
// Artifact, so graph-level consumers need no wrapper type.
type Artifact interface {
	Graph() *ir.Graph
}

// DefaultCacheBytes is the in-memory bound applied by NewCache, in bytes
// of charge (see charge). A long-lived multi-tenant server churns through
// program fingerprints (every distinct tenant program, and every edit of
// one, is a fresh set of keys), so the in-memory tier must be bounded, and
// bounded by what it holds rather than by a count: one tenant's compile may
// be a thousand times another's. Evicted artifacts are not lost when a disk
// Store backs the cache — they reload as disk hits.
const DefaultCacheBytes int64 = 16 << 20

// The entry-count name of the default is an alias of DefaultCacheBytes, kept
// only because the frozen benchmark harness spells it; ROADMAP item 12
// deletes it.
const DefaultCacheEntries = DefaultCacheBytes

// codeBytesPerNode is what a backend's lowered code keeps reachable per
// node of the graph it was lowered from: the closure backend's block funcs,
// the op closures they call and its node-to-slot table. It is the heap
// difference between closure and oracle artifacts of the example programs'
// cold variants (54.5 bytes per node on amd64), so that Artifact needs no
// second method to report its code size; TestChargeTracksTheHeap checks the
// whole charge against the heap.
const codeBytesPerNode = 54

// entryBytes is the cache's own cost per entry: the entry, its map slot
// (key and pointer) and its ring slot.
const entryBytes = int64(unsafe.Sizeof(cacheEntry{}) + unsafe.Sizeof(Key{}) + 2*unsafe.Sizeof(uintptr(0)))

// charge estimates the bytes an entry for a keeps reachable: the entry
// itself, the graph, the lowered code, and the whole linked program the
// graph's methods belong to. The program is charged in full to every entry
// compiled from it — a safe upper bound that needs no reference counts, and
// one a tenant cannot dodge by posting many large programs that each have
// one tiny hot method.
func charge(k Key, a Artifact) int64 {
	n := entryBytes + int64(len(k.Name)+len(k.Backend))
	g := a.Graph()
	if g == nil {
		return n
	}
	n += g.Footprint()
	if _, bare := a.(*ir.Graph); !bare {
		n += codeBytesPerNode * int64(g.NumNodes())
	}
	return n + g.Method.Program().Footprint()
}

type cacheEntry struct {
	k    Key
	a    Artifact
	size int64 // charge(k, a)
	// ref is set by every access and cleared by the eviction hand as it
	// passes: an entry is evicted only if nothing has used it since the hand
	// last came by.
	ref atomic.Bool
}

// Cache is a concurrency-safe, byte-bounded compiled-code cache. Artifacts
// are installed read-only (execution state lives in per-invocation frames),
// so one cached artifact may be shared by any number of VMs running the same
// program — the usual deduplicated-artifact-store shape. Caching the
// lowered artifact rather than the bare graph means warm hits and
// recompiles skip backend lowering entirely. A nil *Cache is valid and
// always misses.
//
// Every entry is charged, once at Put, an estimate of the bytes it keeps
// reachable (see charge), and the sum of the charges stays within the
// bound — the way HotSpot sizes the code cache in bytes
// (ReservedCodeCacheSize), since the entries of a multi-tenant server
// differ in size by orders of magnitude. An artifact charged more than the
// whole bound is returned to its caller without being admitted.
//
// Lookups take only a read lock and mark the entry used with one atomic
// store, so N tenants hammering one shared cache do not serialize on the
// hot path. When a new entry does not fit, it takes the place of entries
// not used lately: CLOCK, the second-chance approximation of LRU. The
// entries sit in a ring; a hand goes round it, clearing the used mark of
// each entry it passes and evicting the ones it finds unmarked until the new
// entry fits. So an insert into a full cache costs a few steps of the hand
// whatever the bound — a server that churns through programs inserts on
// every compile — where finding the exact least-recently-used entry cost a
// pass over the whole cache under the write lock.
type Cache struct {
	mu      sync.RWMutex
	entries map[Key]*cacheEntry
	// ring holds the entries of a bounded cache; an evicted entry leaves a
	// nil slot, listed in free, that the next insert fills. hand is the slot
	// the next eviction looks at first.
	ring      []*cacheEntry
	free      []int
	hand      int
	bytes     int64 // sum of the entries' charges
	max       int64
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewCache creates an empty code cache bounded at DefaultCacheBytes.
func NewCache() *Cache { return NewCacheSize(DefaultCacheBytes) }

// NewCacheSize creates an empty code cache whose entries' charges sum to at
// most maxBytes. maxBytes <= 0 means unbounded.
func NewCacheSize(maxBytes int64) *Cache {
	return &Cache{entries: make(map[Key]*cacheEntry), max: maxBytes}
}

// Get returns the cached artifact for k, counting a hit or miss.
func (c *Cache) Get(k Key) (Artifact, bool) { return c.get(k, true) }

// Probe is Get for a lookup that nothing was promised to: a hit counts (and
// refreshes the entry's recency), a miss leaves no trace. It serves the
// first-call install path, which asks about every method a VM calls — most
// of which were never hot enough to have an artifact.
func (c *Cache) Probe(k Key) (Artifact, bool) { return c.get(k, false) }

func (c *Cache) get(k Key, countMiss bool) (Artifact, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.RLock()
	e := c.entries[k]
	c.mu.RUnlock()
	if e == nil {
		if countMiss {
			c.misses.Add(1)
		}
		return nil, false
	}
	e.touch()
	c.hits.Add(1)
	return e.a, true
}

// touch marks e used. Hot entries are marked already, and reading first
// keeps their cache line shared between the cores reading it.
func (e *cacheEntry) touch() {
	if !e.ref.Load() {
		e.ref.Store(true)
	}
}

// Put stores the artifact for k, evicting entries not used lately until
// it fits, and returns the artifact installed for k. First writer wins:
// concurrent compiles of the same key keep the already-published artifact
// so every consumer observes one canonical artifact. An artifact charged
// more than the whole bound is returned unadmitted.
func (c *Cache) Put(k Key, a Artifact) Artifact {
	if c == nil {
		return a
	}
	size := charge(k, a)
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.entries[k]; ok {
		prev.touch()
		return prev.a
	}
	if c.max > 0 && size > c.max {
		return a
	}
	e := &cacheEntry{k: k, a: a, size: size}
	c.entries[k] = e
	c.bytes += size
	if c.max <= 0 {
		return a
	}
	for c.bytes > c.max {
		c.evict()
	}
	// The slot freed last is the one the hand just left, so the new entry
	// is the last the hand comes back to.
	if n := len(c.free); n > 0 {
		c.ring[c.free[n-1]] = e
		c.free = c.free[:n-1]
	} else {
		c.ring = append(c.ring, e)
	}
	return a
}

// evict removes one entry from the ring: the first the hand finds unmarked,
// clearing marks as it goes. Every entry passed loses its mark, so the hand
// stops within one turn; after a full turn (readers re-marking entries as
// fast as it clears them) it takes whichever entry it is at. Amortised over
// the accesses that set the marks, an eviction is O(1). The new entry is
// not in the ring yet, so it cannot evict itself; c.bytes > c.max with the
// new entry's charge alone within the bound means the ring holds some
// entry.
func (c *Cache) evict() {
	for i := 0; ; i++ {
		e := c.ring[c.hand]
		if e != nil && (i >= len(c.ring) || !e.ref.Swap(false)) {
			delete(c.entries, e.k)
			c.bytes -= e.size
			c.evictions.Add(1)
			c.ring[c.hand] = nil
			c.free = append(c.free, c.hand)
			c.hand = (c.hand + 1) % len(c.ring)
			return
		}
		c.hand = (c.hand + 1) % len(c.ring)
	}
}

// Len returns the number of cached artifacts.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Bytes returns the sum of the cached artifacts' charges.
func (c *Cache) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes
}

// Stats returns cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns the cumulative number of artifacts evicted by the
// byte bound.
func (c *Cache) Evictions() int64 {
	if c == nil {
		return 0
	}
	return c.evictions.Load()
}
