package ir

import (
	"fmt"

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

// replaceIn substitutes old with new in a node slice, returning the number
// of replacements.
func replaceIn(list []*Node, old, new *Node) int {
	c := 0
	for i, n := range list {
		if n == old {
			list[i] = new
			c++
		}
	}
	return c
}

// ReplaceAllUsages replaces every use of old with new throughout the graph:
// node inputs and all FrameState references (locals, stack, virtual object
// field values, recursively through outer states).
func (g *Graph) ReplaceAllUsages(old, new *Node) {
	seen := make(map[*FrameState]bool)
	g.ForEachNode(func(_ *Block, n *Node) {
		if n == old {
			return
		}
		replaceIn(n.Inputs, old, new)
		if n.FrameState != nil {
			n.FrameState.replaceUsages(old, new, seen)
		}
	})
}

// UsageCounts computes, for every node, how many times it is referenced by
// other nodes' inputs and by frame states. The result maps node -> count.
func (g *Graph) UsageCounts() map[*Node]int {
	counts := make(map[*Node]int)
	seenFS := make(map[*FrameState]bool)
	var countFS func(fs *FrameState)
	countFS = func(fs *FrameState) {
		if fs == nil || seenFS[fs] {
			return
		}
		seenFS[fs] = true
		for _, n := range fs.Locals {
			if n != nil {
				counts[n]++
			}
		}
		for _, n := range fs.Stack {
			if n != nil {
				counts[n]++
			}
		}
		for _, vo := range fs.VirtualObjects {
			counts[vo.Object]++
			for _, n := range vo.Values {
				if n != nil {
					counts[n]++
				}
			}
		}
		countFS(fs.Outer)
	}
	g.ForEachNode(func(_ *Block, n *Node) {
		for _, in := range n.Inputs {
			if in != nil {
				counts[in]++
			}
		}
		countFS(n.FrameState)
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
	reachable := make(map[*Block]bool, len(g.Blocks))
	var walk func(b *Block)
	walk = func(b *Block) {
		if reachable[b] {
			return
		}
		reachable[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry())
	for _, b := range g.Blocks {
		if !reachable[b] {
			continue
		}
		// Prune dead preds and matching phi inputs.
		for i := len(b.Preds) - 1; i >= 0; i-- {
			if !reachable[b.Preds[i]] {
				b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
				for _, p := range b.Phis {
					p.Inputs = append(p.Inputs[:i], p.Inputs[i+1:]...)
				}
			}
		}
	}
	kept := g.Blocks[:0]
	for _, b := range g.Blocks {
		if reachable[b] {
			kept = append(kept, b)
		}
	}
	removed := len(g.Blocks) - len(kept)
	g.Blocks = kept
	return removed > 0
}
