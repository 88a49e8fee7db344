package pea

import (
	"testing"

	"pea/internal/ir"
)

// makeState builds a state of nObjs virtual objects with nFields fields.
func makeState(nObjs, nFields int) *peaState {
	st := &peaState{}
	next := 0
	for id := 0; id < nObjs; id++ {
		os := &objState{virtual: true, fields: make([]*ir.Node, nFields)}
		for f := range os.fields {
			next++
			os.fields[f] = &ir.Node{ID: next}
		}
		st.set(objID(id), os)
	}
	return st
}

// TestCloneIsCopyOnWrite: clones share storage until one side mutates, and
// mutations never leak across the sharing boundary.
func TestCloneIsCopyOnWrite(t *testing.T) {
	orig := makeState(4, 3)
	snap := orig.clone()
	if !orig.equal(&snap) {
		t.Fatal("clone not equal to original")
	}

	// Mutating the original must not change the clone.
	v := &ir.Node{ID: 1000}
	orig.mutable(2).fields[1] = v
	if snap.objs[2].fields[1] == v {
		t.Fatal("mutation of the original leaked into the clone")
	}
	if orig.objs[2].fields[1] != v {
		t.Fatal("mutation lost")
	}
	if orig.equal(&snap) {
		t.Fatal("states equal after divergence")
	}

	// Mutating a clone must not change the original or sibling clones.
	a, b := snap.clone(), snap.clone()
	a.mutable(0).lockDepth = 7
	if snap.objs[0].lockDepth == 7 || b.objs[0].lockDepth == 7 {
		t.Fatal("clone mutation leaked to siblings")
	}
	b.set(1, &objState{materialized: v})
	if snap.objs[1].materialized == v || a.objs[1].materialized == v {
		t.Fatal("set on clone leaked to siblings")
	}

	// Repeated mutation after the first copy stays on the private map.
	before := len(a.objs)
	a.mutable(3).lockDepth = 1
	a.mutable(3).lockDepth = 2
	if len(a.objs) != before || a.objs[3].lockDepth != 2 {
		t.Fatal("in-place mutation on owned state broken")
	}
}

// TestCloneIsAllocationFree guards the copy-on-write fast path: cloning a
// state — however large — allocates nothing.
func TestCloneIsAllocationFree(t *testing.T) {
	st := makeState(64, 8)
	allocs := testing.AllocsPerRun(100, func() {
		_ = st.clone()
	})
	if allocs != 0 {
		t.Fatalf("clone allocates %v objects per run, want 0", allocs)
	}
}

// BenchmarkPeaStateClone measures the block-entry cloning cost the analysis
// pays for every block and merge edge, with and without a subsequent
// mutation (which triggers the deferred deep copy).
func BenchmarkPeaStateClone(b *testing.B) {
	for _, cfg := range []struct {
		name         string
		objs, fields int
		mutateAfter  bool
	}{
		{"8objs/share", 8, 4, false},
		{"8objs/mutate", 8, 4, true},
		{"64objs/share", 64, 8, false},
		{"64objs/mutate", 64, 8, true},
	} {
		cfg := cfg
		b.Run(cfg.name, func(b *testing.B) {
			st := makeState(cfg.objs, cfg.fields)
			v := &ir.Node{ID: 9999}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := st.clone()
				if cfg.mutateAfter {
					c.mutable(0).fields[0] = v
				}
			}
		})
	}
}
