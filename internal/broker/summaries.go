package broker

import (
	"sync"

	"pea/internal/bc"
	"pea/internal/obs"
	"pea/internal/summary"
)

// maxSummarySets bounds the summary memory tier. A cached set pins its
// whole *bc.Program, so the tier holds as many programs as a server's
// linked-program memo beside it (serve's maxPrograms) and no more; an
// evicted program's next request reloads from the store or recomputes.
const maxSummarySets = 128

// summaryCache is the in-memory tier for inter-procedural escape-summary
// sets, keyed by program fingerprint. Summary computation is whole-program
// (call graph + SCC fixpoint over every method), so it is amortized once
// per program, not per compilation: every tenant of a shared broker running
// the same program content reuses one set. At maxSummarySets a new set takes
// the place of the least recently used one. Guarded by Broker.sumMu.
type summaryCache struct {
	sets map[uint64]*summaryEntry
	// tick stamps every access; the entry with the lowest stamp is the
	// least recently used. Sets arrive once per whole-program analysis, so
	// finding it with a pass over at most maxSummarySets entries is free.
	tick int64
}

type summaryEntry struct {
	set  *summary.Set
	used int64
}

func newSummaryCache() *summaryCache {
	return &summaryCache{sets: make(map[uint64]*summaryEntry)}
}

// get returns the cached set for a program fingerprint.
func (c *summaryCache) get(fp uint64) (*summary.Set, bool) {
	e := c.sets[fp]
	if e == nil {
		return nil, false
	}
	c.tick++
	e.used = c.tick
	return e.set, true
}

// put stores the set for a program fingerprint the cache does not hold,
// evicting the least recently used set of a full cache.
func (c *summaryCache) put(fp uint64, s *summary.Set) {
	if len(c.sets) >= maxSummarySets {
		var lru uint64
		oldest := c.tick + 1
		for k, e := range c.sets {
			if e.used < oldest {
				lru, oldest = k, e.used
			}
		}
		delete(c.sets, lru)
	}
	c.tick++
	c.sets[fp] = &summaryEntry{set: s, used: c.tick}
}

// summaryCall is one in-flight resolution of a program's summary set, which
// concurrent requests for the same program join.
type summaryCall struct {
	once sync.Once
	set  *summary.Set
}

// Summaries resolves the program's inter-procedural summary set through the
// broker's tiers: the in-memory cache, then the persistent store (a warm
// restart loads and re-validates the persisted set instead of re-analyzing
// the program), then compute — whose result is published to both tiers so
// later tenants and processes skip the analysis. Concurrent first requests
// for the same program collapse onto one resolution: compute never runs
// twice at once for one fingerprint, and runs again only for a program whose
// set was evicted from memory with no store to reload it from. A tier hit is
// reported to sink, the requesting VM's.
func (b *Broker) Summaries(p *bc.Program, sink *obs.Sink, compute func() *summary.Set) *summary.Set {
	fp := p.Fingerprint()
	b.sumMu.Lock()
	s, ok := b.summaries.get(fp)
	call := b.sumFlight[fp]
	if !ok && call == nil {
		call = new(summaryCall)
		b.sumFlight[fp] = call
	}
	b.sumMu.Unlock()
	if ok {
		summarySource(sink, s, "cache")
		return s
	}
	call.once.Do(func() {
		defer func() {
			// Publishing to the memory tier and leaving sumFlight are one
			// step, so a request that finds neither a set nor a call to join
			// really is the first.
			b.sumMu.Lock()
			if call.set != nil {
				b.summaries.put(fp, call.set)
			}
			delete(b.sumFlight, fp)
			b.sumMu.Unlock()
		}()
		if s, ok := b.opts.Store.LoadSummaries(p); ok {
			summarySource(sink, s, "store")
			call.set = s
			return
		}
		if call.set = compute(); call.set != nil {
			// Persist-through is best-effort: a write failure leaves the set
			// cached in memory, and the store counts it in WriteErrors.
			_ = b.opts.Store.PutSummaries(p, call.set)
		}
	})
	return call.set
}

// summarySource reports a tier hit to sink with the set's headline numbers,
// mirroring the summary_ready event Compute emits on a cold run.
func summarySource(sink *obs.Sink, s *summary.Set, source string) {
	if !sink.Traces() || s == nil {
		return
	}
	st := s.Stats()
	sink.SummaryReady(st.Methods, st.NoEscape, st.Preds, source)
}
