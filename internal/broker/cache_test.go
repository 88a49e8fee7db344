package broker

import (
	"fmt"
	"sync"
	"testing"

	"pea/internal/ir"
)

type stubArtifact struct{ g *ir.Graph }

func (s stubArtifact) Graph() *ir.Graph { return s.g }

func nk(i int) Key { return Key{MethodFP: uint64(i) + 1, Name: fmt.Sprintf("C.m%d", i)} }

func TestCacheBoundAndEvictionOrder(t *testing.T) {
	c := NewCacheSize(2)
	a := stubArtifact{}
	c.Put(nk(0), a)
	c.Put(nk(1), a)
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	// Touch k0 so k1 becomes the least recently used.
	if _, ok := c.Get(nk(0)); !ok {
		t.Fatal("k0 missing")
	}
	c.Put(nk(2), a)
	if c.Len() != 2 {
		t.Fatalf("len after eviction = %d, want 2", c.Len())
	}
	if c.Evictions() != 1 {
		t.Fatalf("evictions = %d, want 1", c.Evictions())
	}
	if _, ok := c.Get(nk(1)); ok {
		t.Fatal("least-recently-used entry survived eviction")
	}
	for _, i := range []int{0, 2} {
		if _, ok := c.Get(nk(i)); !ok {
			t.Fatalf("recently used k%d was evicted", i)
		}
	}
}

func TestCachePutRefreshesExisting(t *testing.T) {
	c := NewCacheSize(2)
	first := stubArtifact{g: &ir.Graph{}}
	second := stubArtifact{g: &ir.Graph{}}
	if got := c.Put(nk(0), first); got != Artifact(first) {
		t.Fatal("first put must return its own artifact")
	}
	c.Put(nk(1), stubArtifact{})
	// First writer wins; the re-put refreshes recency but keeps the artifact.
	if got := c.Put(nk(0), second); got != Artifact(first) {
		t.Fatal("re-put replaced an installed artifact")
	}
	c.Put(nk(2), stubArtifact{}) // evicts k1: k0 was refreshed by the re-put
	if _, ok := c.Get(nk(0)); !ok {
		t.Fatal("refreshed entry was evicted")
	}
	if _, ok := c.Get(nk(1)); ok {
		t.Fatal("stale entry survived")
	}
}

func TestCacheUnboundedWhenMaxNonPositive(t *testing.T) {
	c := NewCacheSize(0)
	for i := 0; i < 3*DefaultCacheEntries; i++ {
		c.Put(nk(i), stubArtifact{})
	}
	if c.Len() != 3*DefaultCacheEntries {
		t.Fatalf("len = %d, want %d", c.Len(), 3*DefaultCacheEntries)
	}
	if c.Evictions() != 0 {
		t.Fatalf("unbounded cache evicted %d entries", c.Evictions())
	}
}

// Counters must stay exact under concurrent mixed traffic; run under -race.
func TestCacheParallelCounters(t *testing.T) {
	const (
		workers = 8
		keys    = 64
		ops     = 500
	)
	c := NewCacheSize(keys) // large enough that nothing evicts
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := nk((i + w) % keys)
				if _, ok := c.Get(k); !ok {
					c.Put(k, stubArtifact{})
				}
			}
		}()
	}
	wg.Wait()
	hits, misses := c.Stats()
	if hits+misses != workers*ops {
		t.Fatalf("hits(%d)+misses(%d) = %d, want %d", hits, misses, hits+misses, workers*ops)
	}
	if c.Len() > keys {
		t.Fatalf("len = %d exceeds bound %d", c.Len(), keys)
	}
	if c.Evictions() != 0 {
		t.Fatalf("unexpected evictions: %d", c.Evictions())
	}
}

// idArtifact says which key it was made for.
type idArtifact int

func (idArtifact) Graph() *ir.Graph { return nil }

// Eviction under concurrent traffic: the bound holds at every moment, a
// lookup never returns another key's artifact, and whoever published a key
// first is what every later Put of it returns. Run under -race.
func TestCacheConcurrentEvictionKeepsBoundAndKeys(t *testing.T) {
	const (
		workers = 8
		bound   = 32
		keys    = 8 * bound
		ops     = 2000
	)
	c := NewCacheSize(bound)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				n := (i*7 + w*13) % keys
				var a Artifact
				var ok bool
				switch i % 3 {
				case 0:
					a, ok = c.Put(nk(n), idArtifact(n)), true
				case 1:
					a, ok = c.Get(nk(n))
				default:
					a, ok = c.Probe(nk(n))
				}
				if ok && a != Artifact(idArtifact(n)) {
					t.Errorf("key %d returned artifact %v", n, a)
					return
				}
				if got := c.Len(); got > bound {
					t.Errorf("len = %d exceeds bound %d", got, bound)
					return
				}
			}
		}()
	}
	wg.Wait()
	if c.Evictions() == 0 {
		t.Fatal("no evictions: the test did not fill the cache")
	}
}

// An entry that is used between inserts is never the one evicted, however
// many inserts go by.
func TestCacheTouchedEntrySurvivesChurn(t *testing.T) {
	const bound = 64
	c := NewCacheSize(bound)
	c.Put(nk(0), idArtifact(0))
	for i := 1; i <= 10*bound; i++ {
		c.Put(nk(i), idArtifact(i))
		if _, ok := c.Get(nk(0)); !ok {
			t.Fatalf("entry touched after every insert was evicted at insert %d", i)
		}
	}
	if c.Len() != bound || c.Evictions() != 10*bound+1-bound {
		t.Fatalf("len = %d, evictions = %d", c.Len(), c.Evictions())
	}
}

// BenchmarkCachePutFull pins the complexity of eviction: every Put is into
// a full cache, so each evicts, and the cost per Put must not depend on the
// bound (within 2x between the two sizes; a scan for the least recently used
// entry made it 16x).
func BenchmarkCachePutFull(b *testing.B) {
	for _, size := range []int{256, 4096} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			c := NewCacheSize(size)
			ks := make([]Key, size+b.N)
			for i := range ks {
				ks[i] = nk(i)
			}
			for _, k := range ks[:size] {
				c.Put(k, stubArtifact{})
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, k := range ks[size:] {
				c.Put(k, stubArtifact{})
			}
		})
	}
}

// BenchmarkCacheParallel measures the read-mostly hot path: concurrent Gets
// with an occasional Put, the shape the broker sees when many tenant VMs
// share one cache.
func BenchmarkCacheParallel(b *testing.B) {
	c := NewCache()
	const keys = 256
	for i := 0; i < keys; i++ {
		c.Put(nk(i), stubArtifact{})
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if i%64 == 0 {
				c.Put(nk(i%keys), stubArtifact{})
			} else {
				c.Get(nk(i % keys))
			}
		}
	})
}
