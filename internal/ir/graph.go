package ir

import (
	"fmt"
	"unsafe"

	"pea/internal/bc"
)

// Block is a basic block: phis, ordered fixed/value nodes, and a terminator.
type Block struct {
	ID    int
	Phis  []*Node // OpPhi nodes; input i corresponds to Preds[i]
	Nodes []*Node // ordered instructions (fixed effects and placed values)
	Term  *Node   // OpIf/OpGoto/OpReturn/OpThrow/OpDeopt

	Preds []*Block // predecessor blocks, order significant for phis
	Succs []*Block // successors; OpIf: [true, false]
}

// String returns "b3".
func (b *Block) String() string { return fmt.Sprintf("b%d", b.ID) }

// PredIndex returns the index of p in b.Preds, or -1.
func (b *Block) PredIndex(p *Block) int {
	for i, q := range b.Preds {
		if q == p {
			return i
		}
	}
	return -1
}

// Graph is the IR of one (possibly inlined) compilation unit.
type Graph struct {
	Method *bc.Method
	Blocks []*Block // Blocks[0] is the entry block

	// CodeCycles is inert: nothing reads or serializes it. It exists
	// only because the frozen benchmarks/pipeline.go assigns it; delete
	// the two together.
	CodeCycles int64

	// IsOSR marks an on-stack-replacement graph: the entry block is an
	// OSR preamble whose OpParam nodes are the live interpreter locals
	// (AuxInt = local slot) and operand-stack slots (AuxInt = NumLocals +
	// stack depth) at OSREntryBCI, and execution starts at the hot loop
	// header instead of the method head.
	IsOSR bool
	// OSREntryBCI is the loop-header bytecode index an OSR graph enters
	// at (meaningless when IsOSR is false).
	OSREntryBCI int

	nextNodeID  int
	nextBlockID int
	// epoch stamps the frame states a walk over the graph's uses has
	// visited (see forEachUse).
	epoch uint32
	// nextVirtualID numbers OpVirtualObject nodes.
	nextVirtualID int64
}

// NewGraph creates an empty graph for m with an entry block.
func NewGraph(m *bc.Method) *Graph {
	g := &Graph{Method: m}
	g.NewBlock()
	return g
}

// Entry returns the entry block.
func (g *Graph) Entry() *Block { return g.Blocks[0] }

// Graph returns g itself, letting a bare graph stand in wherever a
// compilation artifact (anything wrapping a scheduled graph) is expected.
func (g *Graph) Graph() *Graph { return g }

// NewBlock appends a fresh empty block.
func (g *Graph) NewBlock() *Block {
	b := &Block{ID: g.nextBlockID}
	g.nextBlockID++
	g.Blocks = append(g.Blocks, b)
	return b
}

// NewNode creates an unplaced node; callers append it via Append/SetTerm/
// AddPhi or keep it as a pure value placed explicitly.
func (g *Graph) NewNode(op Op, kind bc.Kind, inputs ...*Node) *Node {
	n := &Node{ID: g.nextNodeID, Op: op, Kind: kind, Inputs: inputs, BCI: -1}
	g.nextNodeID++
	return n
}

// NextVirtualID returns a fresh virtual object id for OpVirtualObject.
func (g *Graph) NextVirtualID() int64 {
	g.nextVirtualID++
	return g.nextVirtualID
}

// Append places n at the end of b's node list.
func (g *Graph) Append(b *Block, n *Node) *Node {
	n.Block = b
	b.Nodes = append(b.Nodes, n)
	return n
}

// SetTerm sets b's terminator and wires successors.
func (g *Graph) SetTerm(b *Block, n *Node, succs ...*Block) {
	n.Block = b
	b.Term = n
	b.Succs = succs
	for _, s := range succs {
		s.Preds = append(s.Preds, b)
	}
}

// AddPhi adds a phi node to b.
func (g *Graph) AddPhi(b *Block, kind bc.Kind, inputs ...*Node) *Node {
	n := g.NewNode(OpPhi, kind, inputs...)
	n.Block = b
	b.Phis = append(b.Phis, n)
	return n
}

// ConstInt returns a new integer constant node placed in the entry block.
func (g *Graph) ConstInt(b *Block, v int64) *Node {
	n := g.NewNode(OpConst, bc.KindInt)
	n.AuxInt = v
	return g.Append(b, n)
}

// ConstNull returns a new null constant node placed in b.
func (g *Graph) ConstNull(b *Block) *Node {
	return g.Append(b, g.NewNode(OpConstNull, bc.KindRef))
}

// ForEachNode visits every node in the graph (phis, body nodes,
// terminators) in deterministic block order.
func (g *Graph) ForEachNode(f func(b *Block, n *Node)) {
	for _, b := range g.Blocks {
		for _, n := range b.Phis {
			f(b, n)
		}
		for _, n := range b.Nodes {
			f(b, n)
		}
		if b.Term != nil {
			f(b, b.Term)
		}
	}
}

// NumNodes counts all nodes in the graph.
func (g *Graph) NumNodes() int {
	n := 0
	g.ForEachNode(func(*Block, *Node) { n++ })
	return n
}

// NumNodeIDs bounds the graph's node IDs: every node created by NewNode or
// decoded into g has 0 <= ID < NumNodeIDs(), and no two share one. Phases
// size their per-node tables by it.
func (g *Graph) NumNodeIDs() int { return g.nextNodeID }

// NumBlockIDs bounds the graph's block IDs as NumNodeIDs bounds its node
// IDs.
func (g *Graph) NumBlockIDs() int { return g.nextBlockID }

// Footprint estimates the heap bytes the graph occupies: its blocks with
// their node and edge lists, its nodes with their input slices, and its
// frame states with their virtual-object descriptions, each state once
// however many nodes share it. Allocator rounding is ignored. It only reads
// the graph, so it is safe on one that other goroutines are executing.
func (g *Graph) Footprint() int64 {
	const ptr = int64(unsafe.Sizeof(uintptr(0)))
	n := int64(unsafe.Sizeof(*g)) + ptr*int64(cap(g.Blocks))
	for _, b := range g.Blocks {
		n += int64(unsafe.Sizeof(*b)) + ptr*int64(cap(b.Phis)+cap(b.Nodes)+cap(b.Preds)+cap(b.Succs))
	}
	seen := make(map[*FrameState]bool)
	g.ForEachNode(func(_ *Block, x *Node) {
		n += int64(unsafe.Sizeof(*x)) + ptr*int64(cap(x.Inputs))
		for fs := x.FrameState; fs != nil && !seen[fs]; fs = fs.Outer {
			seen[fs] = true
			n += int64(unsafe.Sizeof(*fs)) + ptr*int64(cap(fs.Locals)+cap(fs.Stack)+cap(fs.VirtualObjects))
			for _, vo := range fs.VirtualObjects {
				n += int64(unsafe.Sizeof(*vo)) + ptr*int64(cap(vo.Values))
			}
		}
	})
	return n
}

// forEachUse calls f with the address of every slot that references a
// node: the inputs of every placed node and the locals, stack entries and
// virtual-object descriptions of every frame state reachable from one
// (through Outer). A frame state shared by several nodes or chains is
// visited once: it is stamped with the walk's epoch, which costs nothing to
// reset.
func (g *Graph) forEachUse(f func(slot **Node)) {
	g.epoch++
	g.ForEachNode(func(_ *Block, n *Node) {
		for i := range n.Inputs {
			f(&n.Inputs[i])
		}
		for fs := n.FrameState; fs != nil && fs.epoch != g.epoch; fs = fs.Outer {
			fs.epoch = g.epoch
			for i := range fs.Locals {
				f(&fs.Locals[i])
			}
			for i := range fs.Stack {
				f(&fs.Stack[i])
			}
			for _, vo := range fs.VirtualObjects {
				f(&vo.Object)
				for i := range vo.Values {
					f(&vo.Values[i])
				}
			}
		}
	})
}

// Substitution maps nodes to the nodes that replace them, by node ID. It is
// the one way a phase rewrites uses: the phase records its replacements
// here, reads the inputs it inspects through Resolve, and applies the lot
// with one Graph.Substitute. The zero value is empty and allocates on the
// first Add.
type Substitution []*Node

// Add records that by replaces n, a node of g. n may have been created
// after earlier Adds: the table grows to cover every node g has numbered.
func (s *Substitution) Add(g *Graph, n, by *Node) {
	if n.ID >= len(*s) {
		*s = append(*s, make(Substitution, g.nextNodeID-len(*s))...)
	}
	(*s)[n.ID] = by
}

// Resolve returns the node that stands for n, following chains to their
// end: after Add(a, b) and Add(b, c), a and b both resolve to c.
func (s Substitution) Resolve(n *Node) *Node {
	for n != nil && n.ID < len(s) && s[n.ID] != nil {
		n = s[n.ID]
	}
	return n
}

// Substitute replaces every use of every node in s by what it resolves to,
// in one walk of the graph. The replaced nodes themselves must already be
// out of their blocks.
func (g *Graph) Substitute(s Substitution) {
	g.forEachUse(func(slot **Node) {
		*slot = s.Resolve(*slot)
	})
}

// UseCounts computes, for every node, how many times it is referenced by
// other nodes' inputs and by frame states. The result is indexed by node
// ID.
func (g *Graph) UseCounts() []int32 {
	counts := make([]int32, g.nextNodeID)
	g.forEachUse(func(slot **Node) {
		if *slot != nil {
			counts[(*slot).ID]++
		}
	})
	return counts
}

// RemoveNode deletes n from its block's node list (not for phis or
// terminators). The caller must have rewired all usages.
func (g *Graph) RemoveNode(n *Node) {
	b := n.Block
	if b == nil {
		return
	}
	for i, x := range b.Nodes {
		if x == n {
			b.Nodes = append(b.Nodes[:i], b.Nodes[i+1:]...)
			n.Block = nil
			return
		}
	}
}

// RemovePhi deletes a phi from its block.
func (g *Graph) RemovePhi(p *Node) {
	b := p.Block
	if b == nil {
		return
	}
	for i, x := range b.Phis {
		if x == p {
			b.Phis = append(b.Phis[:i], b.Phis[i+1:]...)
			p.Block = nil
			return
		}
	}
}

// InsertBefore inserts n into b's node list immediately before pos. If pos
// is nil or not found, n is appended at the end (before the terminator).
func (g *Graph) InsertBefore(b *Block, n *Node, pos *Node) {
	n.Block = b
	if pos != nil {
		for i, x := range b.Nodes {
			if x == pos {
				b.Nodes = append(b.Nodes[:i], append([]*Node{n}, b.Nodes[i:]...)...)
				return
			}
		}
	}
	b.Nodes = append(b.Nodes, n)
}

// RemoveDeadBlocks drops blocks unreachable from the entry and prunes
// predecessor lists and phi inputs accordingly. It reports whether
// anything was removed.
func (g *Graph) RemoveDeadBlocks() bool {
	reachable := make([]bool, g.nextBlockID)
	reachable[g.Entry().ID] = true
	for work := []*Block{g.Entry()}; len(work) > 0; {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs {
			if !reachable[s.ID] {
				reachable[s.ID] = true
				work = append(work, s)
			}
		}
	}
	for _, b := range g.Blocks {
		if !reachable[b.ID] {
			continue
		}
		// Prune dead preds and matching phi inputs.
		for i := len(b.Preds) - 1; i >= 0; i-- {
			if !reachable[b.Preds[i].ID] {
				b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
				for _, p := range b.Phis {
					p.Inputs = append(p.Inputs[:i], p.Inputs[i+1:]...)
				}
			}
		}
	}
	kept := g.Blocks[:0]
	for _, b := range g.Blocks {
		if reachable[b.ID] {
			kept = append(kept, b)
		}
	}
	removed := len(g.Blocks) - len(kept)
	g.Blocks = kept
	return removed > 0
}
