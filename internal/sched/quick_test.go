package sched

import (
	"testing"
	"testing/quick"

	"pea/internal/build"
	"pea/internal/testprog"
)

// TestQuickDominatorProperties checks dominator-tree invariants on
// generated control-flow graphs:
//
//   - the entry dominates every block and has no idom;
//   - idom(b) strictly dominates b;
//   - every predecessor of a block precedes it in RPO unless the block
//     dominates it (a back edge).
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
			for _, b := range cfg.RPO {
				for _, p := range b.Preds {
					if cfg.Index(p) >= cfg.Index(b) && !cfg.Dominates(b, p) {
						t.Logf("seed %d: pred %s of %s follows it in RPO but is no back edge", seed, p, b)
						return false
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
