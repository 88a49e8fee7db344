package broker

import (
	"sync"
	"sync/atomic"

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
//   - Mode is the escape-analysis configuration ordinal (vm.EAMode).
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
//   - Summaries records whether the pipeline consumed inter-procedural
//     escape summaries (internal/summary). Summary-informed code embeds
//     callee facts (kept-virtual call arguments, inlining order), so a
//     summaries-on artifact must never replay into a summaries-off VM or
//     vice versa; the two configurations cache side by side. MethodFP
//     already covers the whole program's bytecode, so the summaries
//     themselves need no separate fingerprint here.
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
	Summaries   bool
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

// DefaultCacheEntries is the in-memory artifact bound applied by NewCache.
// A long-lived multi-tenant server churns through program fingerprints
// (every distinct tenant program, and every edit of one, is a fresh set of
// keys), so the in-memory tier must be bounded; evicted artifacts are not
// lost when a disk Store backs the cache — they reload as disk hits.
const DefaultCacheEntries = 4096

type cacheEntry struct {
	k Key
	a Artifact
	// ref is set by every access and cleared by the eviction hand as it
	// passes: an entry is evicted only if nothing has used it since the hand
	// last came by.
	ref atomic.Bool
}

// Cache is a concurrency-safe, bounded compiled-code cache. Artifacts are
// installed read-only (execution state lives in per-invocation frames), so
// one cached artifact may be shared by any number of VMs running the same
// program — the usual deduplicated-artifact-store shape. Caching the
// lowered artifact rather than the bare graph means warm hits and
// recompiles skip backend lowering entirely. A nil *Cache is valid and
// always misses.
//
// Lookups take only a read lock and mark the entry used with one atomic
// store, so N tenants hammering one shared cache do not serialize on the
// hot path. When the bound is reached, a new entry takes the place of one
// not used lately: CLOCK, the second-chance approximation of LRU. The
// entries sit in a ring in insertion order; a hand goes round it, clearing
// the used mark of each entry it passes and evicting the first it finds
// unmarked. So an insert into a full cache costs a few steps of the hand
// whatever the bound — a server that churns through programs inserts on
// every compile — where finding the exact least-recently-used entry cost a
// pass over the whole cache under the write lock.
type Cache struct {
	mu      sync.RWMutex
	entries map[Key]*cacheEntry
	// ring holds the entries of a bounded cache (at most max of them); hand
	// is the slot the next eviction looks at first.
	ring      []*cacheEntry
	hand      int
	max       int
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

// NewCache creates an empty code cache bounded at DefaultCacheEntries.
func NewCache() *Cache { return NewCacheSize(DefaultCacheEntries) }

// NewCacheSize creates an empty code cache holding at most max artifacts
// in memory. max <= 0 means unbounded.
func NewCacheSize(max int) *Cache {
	return &Cache{entries: make(map[Key]*cacheEntry), max: max}
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

// Put stores the artifact for k, evicting an entry not used lately if the
// cache is full. First writer wins: concurrent compiles of the same key
// keep the already-published artifact so every consumer observes one
// canonical artifact.
func (c *Cache) Put(k Key, a Artifact) Artifact {
	if c == nil {
		return a
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.entries[k]; ok {
		prev.touch()
		return prev.a
	}
	e := &cacheEntry{k: k, a: a}
	c.entries[k] = e
	if c.max <= 0 {
		return a
	}
	if len(c.ring) < c.max {
		c.ring = append(c.ring, e)
	} else {
		// Every entry passed loses its mark, so the hand stops within one
		// turn (which the loop bound enforces against readers re-marking
		// entries as fast as it clears them): amortised over the accesses
		// that set the marks, an eviction is O(1).
		for i := 0; i < len(c.ring) && c.ring[c.hand].ref.Swap(false); i++ {
			c.hand = (c.hand + 1) % len(c.ring)
		}
		delete(c.entries, c.ring[c.hand].k)
		c.evictions.Add(1)
		c.ring[c.hand] = e
		c.hand = (c.hand + 1) % len(c.ring)
	}
	return a
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

// Stats returns cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Load(), c.misses.Load()
}

// Evictions returns the cumulative number of artifacts evicted by the
// size bound.
func (c *Cache) Evictions() int64 {
	if c == nil {
		return 0
	}
	return c.evictions.Load()
}
