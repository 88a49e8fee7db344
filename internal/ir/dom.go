package ir

import (
	"slices"
	"sync/atomic"
)

// domTreesBuilt counts every dominator tree construction. The strict
// checker's zero-overhead guarantee ("check level off builds no dominator
// trees on the compile path") is pinned against this counter in tests.
var domTreesBuilt atomic.Int64

// DomTreesBuilt returns the number of dominator trees built since process
// start. Test-only observability; never reset.
func DomTreesBuilt() int64 { return domTreesBuilt.Load() }

// DomTree is a dominator tree over the blocks of a graph reachable from
// the entry, built with the iterative Cooper–Harvey–Kennedy algorithm
// over reverse postorder. It is dense: blocks are named by their RPO
// position, found through a table indexed by block ID, so building the tree
// allocates three slices and a dominance query is an integer walk.
type DomTree struct {
	G *Graph
	// RPO is the reverse postorder over reachable blocks; RPO[0] is the
	// entry.
	RPO []*Block
	// index maps a block ID to the block's RPO position, -1 for blocks
	// unreachable from the entry.
	index []int32
	// idom maps an RPO position to the position of the block's immediate
	// dominator, -1 for the entry. A dominator precedes what it dominates
	// in RPO, so idom[i] < i.
	idom []int32
}

// NewDomTree builds the dominator tree for g. The graph may contain
// unreachable blocks; they are simply absent from the result.
func NewDomTree(g *Graph) *DomTree {
	domTreesBuilt.Add(1)
	d := &DomTree{G: g}
	d.computeRPO()
	d.computeIDoms()
	return d
}

func (d *DomTree) computeRPO() {
	const unseen, onStack = -1, -2
	d.index = make([]int32, d.G.nextBlockID)
	for i := range d.index {
		d.index[i] = unseen
	}
	post := make([]*Block, 0, len(d.G.Blocks))
	// Iterative DFS (graphs can be deep after inlining + OSR preambles).
	type frame struct {
		b *Block
		i int
	}
	stack := []frame{{d.G.Entry(), 0}}
	d.index[d.G.Entry().ID] = onStack
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.i < len(f.b.Succs) {
			s := f.b.Succs[f.i]
			f.i++
			if d.index[s.ID] == unseen {
				d.index[s.ID] = onStack
				stack = append(stack, frame{s, 0})
			}
			continue
		}
		post = append(post, f.b)
		stack = stack[:len(stack)-1]
	}
	slices.Reverse(post)
	d.RPO = post
	for i, b := range d.RPO {
		d.index[b.ID] = int32(i)
	}
}

// computeIDoms implements the Cooper–Harvey–Kennedy iterative algorithm
// ("A Simple, Fast Dominance Algorithm") over the reverse postorder.
func (d *DomTree) computeIDoms() {
	const undefined = -1
	idom := make([]int32, len(d.RPO))
	for i := range idom {
		idom[i] = undefined
	}
	idom[0] = 0
	intersect := func(a, b int32) int32 {
		for a != b {
			for a > b {
				a = idom[a]
			}
			for b > a {
				b = idom[b]
			}
		}
		return a
	}
	for changed := true; changed; {
		changed = false
		for i, b := range d.RPO[1:] {
			newIdom := int32(undefined)
			for _, p := range b.Preds {
				pi := d.index[p.ID]
				if pi < 0 || idom[pi] == undefined {
					continue // unreachable or not yet processed
				}
				if newIdom == undefined {
					newIdom = pi
				} else {
					newIdom = intersect(newIdom, pi)
				}
			}
			if newIdom != undefined && idom[i+1] != newIdom {
				idom[i+1] = newIdom
				changed = true
			}
		}
	}
	idom[0] = -1
	d.idom = idom
}

// Index returns b's position in RPO, or -1 if b is unreachable from the
// entry.
func (d *DomTree) Index(b *Block) int {
	if b.ID < 0 || b.ID >= len(d.index) {
		return -1
	}
	return int(d.index[b.ID])
}

// Reachable reports whether b is reachable from the entry.
func (d *DomTree) Reachable(b *Block) bool { return d.Index(b) >= 0 }

// IDom returns b's immediate dominator: nil for the entry and for
// unreachable blocks.
func (d *DomTree) IDom(b *Block) *Block {
	if i := d.Index(b); i > 0 {
		return d.RPO[d.idom[i]]
	}
	return nil
}

// Dominates reports whether a dominates b (reflexive). An unreachable
// block dominates nothing and is dominated by nothing.
func (d *DomTree) Dominates(a, b *Block) bool {
	ai, bi := int32(d.Index(a)), int32(d.Index(b))
	if ai < 0 {
		return false
	}
	for bi > ai {
		bi = d.idom[bi]
	}
	return bi == ai
}
