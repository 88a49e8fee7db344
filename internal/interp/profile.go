package interp

import (
	"sort"
	"sync"

	"pea/internal/bc"
)

// Profile accumulates execution profiles while interpreting: invocation
// counts per method, taken/not-taken counts per branch site, and back-edge
// counts per loop header. The JIT policy uses invocation and back-edge
// counts to pick compilation and OSR candidates; a speculating compile
// reads the branch counts, through opt.BranchPruner, to turn never-taken
// arms into deoptimization points. Nothing else reads it: the scheduler
// uses no block frequencies, and devirtualization is exact-type/CHA only, so
// no receiver profile is kept.
//
// A Profile is safe for concurrent use: the interpreter mutates it on the
// execution thread while compile-broker workers read it concurrently
// (branch pruning, cache-key fingerprints).
type Profile struct {
	mu      sync.Mutex
	methods []methodProfile
}

type methodProfile struct {
	invocations int64
	// branches maps branch pc -> [notTaken, taken] counts.
	branches map[int]*[2]int64
	// backEdges maps loop-header pc -> number of backward control
	// transfers observed into it. This is the OSR trigger: a single
	// long-running invocation accumulates back-edge counts even though
	// its invocation count never moves.
	backEdges map[int]*int64
}

// NewProfile creates an empty profile sized for the program.
func NewProfile(p *bc.Program) *Profile {
	return &Profile{methods: make([]methodProfile, len(p.Methods))}
}

// mp returns the method's profile slot; the caller must hold p.mu.
func (p *Profile) mp(m *bc.Method) *methodProfile { return &p.methods[m.ID] }

// CountInvocation records one invocation of m.
func (p *Profile) CountInvocation(m *bc.Method) {
	p.mu.Lock()
	p.mp(m).invocations++
	p.mu.Unlock()
}

// Invocations returns the recorded invocation count of m.
func (p *Profile) Invocations(m *bc.Method) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mp(m).invocations
}

// CountBranch records one execution of the branch at (m, pc).
func (p *Profile) CountBranch(m *bc.Method, pc int, taken bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	mp := p.mp(m)
	if mp.branches == nil {
		mp.branches = make(map[int]*[2]int64)
	}
	c := mp.branches[pc]
	if c == nil {
		c = new([2]int64)
		mp.branches[pc] = c
	}
	if taken {
		c[1]++
	} else {
		c[0]++
	}
}

// CountBackEdge records one backward control transfer to the loop header
// at (m, pc) and returns the new count, so the interpreter can compare it
// against the OSR threshold without a second lock acquisition.
func (p *Profile) CountBackEdge(m *bc.Method, pc int) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	mp := p.mp(m)
	if mp.backEdges == nil {
		mp.backEdges = make(map[int]*int64)
	}
	c := mp.backEdges[pc]
	if c == nil {
		c = new(int64)
		mp.backEdges[pc] = c
	}
	*c++
	return *c
}

// BackEdges returns the recorded back-edge count of the loop header at
// (m, pc).
func (p *Profile) BackEdges(m *bc.Method, pc int) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.mp(m).backEdges[pc]
	if c == nil {
		return 0
	}
	return *c
}

// BranchCounts returns the raw (notTaken, taken) execution counts of the
// branch at (m, pc).
func (p *Profile) BranchCounts(m *bc.Method, pc int) (notTaken, taken int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.mp(m).branches[pc]
	if c == nil {
		return 0, 0
	}
	return c[0], c[1]
}

// Fingerprint hashes the one kind of profile fact the compiler reads: the
// pruning verdict of every branch site under the given MinTotal threshold
// (prunable-taken / prunable-not-taken; unprunable sites contribute
// nothing), which opt.BranchPruner turns into deoptimization points when a
// compile speculates. Raw counts are deliberately excluded — two profiles
// that would drive the pruner to identical decisions produce identical
// fingerprints, which is what lets speculative code hit the compiled-code
// cache across repeated runs, while any decision-relevant divergence
// changes the hash and forces a fresh compile. Invocation and back-edge
// counts are not hashed: they decide when a method or loop is compiled, and
// OSR entry points are named by the cache key itself, so neither changes
// what a compile emits. A non-speculative compile reads no profile at all;
// its cache key carries no fingerprint (see vm.VM.cacheKey).
func (p *Profile) Fingerprint(minTotal int64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	p.mu.Lock()
	defer p.mu.Unlock()
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	for i := range p.methods {
		mp := &p.methods[i]
		if len(mp.branches) == 0 {
			continue
		}
		mix(uint64(i) + 0x9e3779b97f4a7c15)
		pcs := make([]int, 0, len(mp.branches))
		for pc := range mp.branches {
			pcs = append(pcs, pc)
		}
		sort.Ints(pcs)
		for _, pc := range pcs {
			c := mp.branches[pc]
			verdict := uint64(0) // not prunable (mixed or cold)
			if total := c[0] + c[1]; total >= minTotal {
				switch {
				case c[1] == 0:
					verdict = 1 // taken side never executed
				case c[0] == 0:
					verdict = 2 // fall-through side never executed
				}
			}
			if verdict != 0 {
				mix(uint64(pc)<<2 + verdict)
			}
		}
	}
	return h
}
