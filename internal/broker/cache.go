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
//     it) but kept in the key so that cache entries, persisted envelopes,
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
// The key holds no pointers, so it round-trips through the persisted
// artifact envelope (see Store) unchanged.
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
	a    Artifact
	used atomic.Int64 // logical clock tick of last access
}

// Cache is a concurrency-safe, bounded compiled-code cache. Artifacts are
// installed read-only (execution state lives in per-invocation frames), so
// one cached artifact may be shared by any number of VMs running the same
// program — the usual deduplicated-artifact-store shape. Caching the
// lowered artifact rather than the bare graph means warm hits and
// recompiles skip backend lowering entirely. A nil *Cache is valid and
// always misses.
//
// Lookups take only a read lock and touch counters atomically, so N
// tenants hammering one shared cache do not serialize on the hot path.
// When the bound is exceeded, the least-recently-used entry is evicted
// (approximate LRU: last-use ticks come from a global logical clock and
// the minimum is found by scan — eviction is the rare path, lookups are
// the hot one).
type Cache struct {
	mu        sync.RWMutex
	entries   map[Key]*cacheEntry
	max       int
	clock     atomic.Int64
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
	e.used.Store(c.clock.Add(1))
	c.hits.Add(1)
	return e.a, true
}

// Put stores the artifact for k, evicting the least-recently-used entry if
// the cache is full. First writer wins: concurrent compiles of the same key
// keep the already-published artifact so every consumer observes one
// canonical artifact.
func (c *Cache) Put(k Key, a Artifact) Artifact {
	if c == nil {
		return a
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.entries[k]; ok {
		prev.used.Store(c.clock.Add(1))
		return prev.a
	}
	if c.max > 0 && len(c.entries) >= c.max {
		c.evictLocked()
	}
	e := &cacheEntry{a: a}
	e.used.Store(c.clock.Add(1))
	c.entries[k] = e
	return a
}

// evictLocked removes the entry with the oldest last-use tick. Caller holds
// the write lock.
func (c *Cache) evictLocked() {
	var victim Key
	best := int64(0)
	first := true
	for k, e := range c.entries {
		u := e.used.Load()
		if first || u < best {
			victim, best, first = k, u, false
		}
	}
	if !first {
		delete(c.entries, victim)
		c.evictions.Add(1)
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
