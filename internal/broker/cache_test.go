package broker

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"pea/internal/ir"
)

// stubArtifact stands for lowered code: it is charged its graph plus
// codeBytesPerNode per node.
type stubArtifact struct{ g *ir.Graph }

func (s stubArtifact) Graph() *ir.Graph { return s.g }

// nk names keys at a fixed width, so that artifacts without a graph all
// carry the same charge, perKey.
func nk(i int) Key { return Key{MethodFP: uint64(i) + 1, Name: fmt.Sprintf("C.m%07d", i)} }

// perKey is the charge of an artifact without a graph under an nk key: the
// entry alone.
var perKey = charge(nk(0), idArtifact(0))

// graphOf returns a graph of n constant nodes, no method and so no program.
func graphOf(n int) *ir.Graph {
	g := ir.NewGraph(nil)
	for i := 0; i < n; i++ {
		g.ConstInt(g.Entry(), int64(i))
	}
	return g
}

// bytesOfEntries is the sum of the charges c's entries were admitted with,
// which the cache must keep equal to c.Bytes().
func bytesOfEntries(c *Cache) int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var n int64
	for _, e := range c.entries {
		n += e.size
	}
	return n
}

func TestCacheBoundAndEvictionOrder(t *testing.T) {
	c := NewCacheSize(2 * perKey)
	a := idArtifact(0)
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
	c := NewCacheSize(2 * perKey)
	first, second := idArtifact(1), idArtifact(2)
	if got := c.Put(nk(0), first); got != Artifact(first) {
		t.Fatal("first put must return its own artifact")
	}
	c.Put(nk(1), idArtifact(0))
	// First writer wins; the re-put refreshes recency but keeps the artifact.
	if got := c.Put(nk(0), second); got != Artifact(first) {
		t.Fatal("re-put replaced an installed artifact")
	}
	c.Put(nk(2), idArtifact(0)) // evicts k1: k0 was refreshed by the re-put
	if _, ok := c.Get(nk(0)); !ok {
		t.Fatal("refreshed entry was evicted")
	}
	if _, ok := c.Get(nk(1)); ok {
		t.Fatal("stale entry survived")
	}
}

func TestCacheUnboundedWhenMaxNonPositive(t *testing.T) {
	c := NewCacheSize(0)
	// One shared graph, charged in full to every entry: 3x the default
	// bound's worth of charge in a few dozen entries.
	a := stubArtifact{graphOf(20000)}
	per := charge(nk(0), a)
	n := int(3*DefaultCacheBytes/per) + 1
	for i := 0; i < n; i++ {
		c.Put(nk(i), a)
	}
	if c.Len() != n || c.Bytes() != int64(n)*per || c.Bytes() <= 3*DefaultCacheBytes {
		t.Fatalf("len = %d, bytes = %d, want %d entries of %d bytes", c.Len(), c.Bytes(), n, per)
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
	c := NewCacheSize(keys * perKey) // large enough that nothing evicts
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := nk((i + w) % keys)
				if _, ok := c.Get(k); !ok {
					c.Put(k, idArtifact(0))
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
	c := NewCacheSize(bound * perKey)
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
				if got := c.Bytes(); got > bound*perKey || c.Len() > bound {
					t.Errorf("bytes = %d, len = %d exceed bound %d x %d", got, c.Len(), bound, perKey)
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
	c := NewCacheSize(bound * perKey)
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

// A seeded stream of Puts and Gets whose charges differ by three orders of
// magnitude: after every Put the charges sum to at most the bound, and
// Bytes is exactly that sum.
func TestCacheBytesBoundUnderRandomTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	arts := make([]Artifact, 0, 9)
	arts = append(arts, idArtifact(0))
	for _, n := range []int{1, 4, 16, 64, 256, 1024, 2048, 4096} {
		arts = append(arts, stubArtifact{graphOf(n)})
	}
	bound := 8 * charge(nk(0), arts[len(arts)-1])
	c := NewCacheSize(bound)
	const keys = 600
	for i := 0; i < 5000; i++ {
		k := rng.Intn(keys)
		if rng.Intn(3) == 0 {
			c.Get(nk(k))
			continue
		}
		c.Put(nk(k), arts[k%len(arts)])
		if got := c.Bytes(); got > bound || got != bytesOfEntries(c) {
			t.Fatalf("put %d: bytes = %d, charges of the entries = %d, bound %d", i, got, bytesOfEntries(c), bound)
		}
	}
	if c.Evictions() == 0 {
		t.Fatal("no evictions: the stream did not fill the cache")
	}
	for k, e := range c.entries {
		if e.size != charge(k, e.a) {
			t.Fatalf("%s admitted at %d bytes, charged %d", k.Name, e.size, charge(k, e.a))
		}
	}
}

// An artifact charged more than the whole bound comes back from Put, but
// the cache neither keeps it nor evicts anything for it.
func TestCacheRejectsArtifactAboveBound(t *testing.T) {
	c := NewCacheSize(4 * perKey)
	c.Put(nk(0), idArtifact(0))
	c.Put(nk(1), idArtifact(1))
	len0, bytes0 := c.Len(), c.Bytes()
	big := stubArtifact{graphOf(100)}
	if charge(nk(2), big) <= 4*perKey {
		t.Fatal("test artifact fits the bound")
	}
	if got := c.Put(nk(2), big); got != Artifact(big) {
		t.Fatal("an unadmitted artifact must still be returned to its caller")
	}
	if c.Len() != len0 || c.Bytes() != bytes0 || c.Evictions() != 0 {
		t.Fatalf("len %d -> %d, bytes %d -> %d, evictions %d", len0, c.Len(), bytes0, c.Bytes(), c.Evictions())
	}
	if _, ok := c.Get(nk(2)); ok {
		t.Fatal("the oversized artifact was admitted")
	}
}

// The charge is the entry, the graph, the lowered code per node (not for a
// bare graph, which has none) and the whole program, charged to each entry
// compiled from it.
func TestChargeCountsGraphCodeAndProgram(t *testing.T) {
	ms := testMethods(t, 2)
	prog := ms[0].Program()
	if prog == nil || prog.Footprint() <= 0 {
		t.Fatal("a linked method must lead to its program's footprint")
	}
	g := mustBuild(ms[0])
	k := key(ms[0])
	bare := entryBytes + int64(len(k.Name)) + g.Footprint() + prog.Footprint()
	if got := charge(k, g); got != bare {
		t.Fatalf("bare graph charged %d, want %d", got, bare)
	}
	if got, want := charge(k, stubArtifact{g}), bare+codeBytesPerNode*int64(g.NumNodes()); got != want {
		t.Fatalf("lowered artifact charged %d, want %d", got, want)
	}
	g1 := mustBuild(ms[1])
	if got := charge(key(ms[1]), g1) - g1.Footprint(); got != entryBytes+int64(len(key(ms[1]).Name))+prog.Footprint() {
		t.Fatal("a second artifact of the same program must be charged the program again")
	}
}

// BenchmarkCachePutFull pins the complexity of eviction: every Put is into
// a full cache, so each evicts, and the cost per Put must not depend on the
// bound (within 2x between the two sizes; a scan for the least recently used
// entry made it 16x). The sizes name how many entries the bound holds.
func BenchmarkCachePutFull(b *testing.B) {
	for _, size := range []int{256, 4096} {
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			c := NewCacheSize(int64(size) * perKey)
			ks := make([]Key, size+b.N)
			for i := range ks {
				ks[i] = nk(i)
			}
			for _, k := range ks[:size] {
				c.Put(k, idArtifact(0))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for _, k := range ks[size:] {
				c.Put(k, idArtifact(0))
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
		c.Put(nk(i), idArtifact(0))
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if i%64 == 0 {
				c.Put(nk(i%keys), idArtifact(0))
			} else {
				c.Get(nk(i % keys))
			}
		}
	})
}
