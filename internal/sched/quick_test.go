package sched

import (
	"testing"
	"testing/quick"

	"pea/internal/build"
	"pea/internal/testprog"
)

// TestQuickDominatorProperties checks dominator-tree and loop-forest
// invariants on generated control-flow graphs:
//
//   - the entry dominates every block and has no idom;
//   - idom(b) strictly dominates b;
//   - every predecessor of a non-header block is dominated-after it in
//     RPO terms (forward edges only);
//   - loop headers dominate all blocks of their loop, including the back
//     edges; nested loops are fully contained in their parents.
func TestQuickDominatorProperties(t *testing.T) {
	check := func(seed uint16) bool {
		p := testprog.Generate(int64(seed) + 200_000)
		for _, m := range p.Prog.Methods {
			g, err := build.Build(m)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			cfg, err := Compute(g)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			entry := g.Entry()
			if cfg.IDom(entry) != nil {
				t.Logf("seed %d: entry has idom", seed)
				return false
			}
			for _, b := range cfg.RPO {
				if !cfg.Dominates(entry, b) {
					t.Logf("seed %d: entry !dom %s", seed, b)
					return false
				}
				if b != entry {
					id := cfg.IDom(b)
					if id == nil || !cfg.Dominates(id, b) || id == b {
						t.Logf("seed %d: bad idom of %s", seed, b)
						return false
					}
				}
			}
			for _, l := range cfg.Loops {
				for blk := range l.Blocks {
					if !cfg.Dominates(l.Header, blk) {
						t.Logf("seed %d: header %s !dom member %s", seed, l.Header, blk)
						return false
					}
				}
				for _, be := range l.BackEdges {
					if !l.Blocks[be] {
						t.Logf("seed %d: back edge source outside loop", seed)
						return false
					}
				}
				if l.Parent != nil {
					for blk := range l.Blocks {
						if !l.Parent.Blocks[blk] {
							t.Logf("seed %d: nested loop escapes parent", seed)
							return false
						}
					}
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 80}
	if testing.Short() {
		cfg.MaxCount = 15
	}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}
