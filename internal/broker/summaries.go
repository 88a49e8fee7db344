package broker

import (
	"pea/internal/bc"
	"pea/internal/obs"
	"pea/internal/summary"
)

// maxSummarySets bounds the summary memory tier. A cached set pins its
// whole *bc.Program, so the tier holds as many programs as a server's
// linked-program memo beside it (serve's maxPrograms) and no more; an
// evicted program's next request recomputes.
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

// Summaries returns the program's inter-procedural summary set from the
// memory tier, or computes it and publishes it there so that later tenants
// of the broker skip the analysis. A set is never persisted: it costs tens of
// microseconds to compute, and a warm restart that replays every artifact
// from the store never asks for it. Concurrent first requests for one
// program may each compute; the first to publish wins, and every caller
// after it gets that set. A memory hit is reported to sink, the requesting
// VM's, mirroring the summary_ready event Compute emits on a miss.
func (b *Broker) Summaries(p *bc.Program, sink *obs.Sink, compute func() *summary.Set) *summary.Set {
	fp := p.Fingerprint()
	b.sumMu.Lock()
	s, ok := b.summaries.get(fp)
	b.sumMu.Unlock()
	if ok {
		if sink.Traces() {
			st := s.Stats()
			sink.SummaryReady(st.Methods, st.NoEscape, st.Preds, "cache")
		}
		return s
	}
	if s = compute(); s == nil {
		return nil
	}
	b.sumMu.Lock()
	defer b.sumMu.Unlock()
	if won, ok := b.summaries.get(fp); ok {
		return won
	}
	b.summaries.put(fp, s)
	return s
}
