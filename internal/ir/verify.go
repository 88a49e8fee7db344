package ir

import (
	"fmt"

	"pea/internal/bc"
)

// Verify checks structural invariants of the graph and returns the first
// violation found. It is run in tests after every compiler phase.
//
// Checked invariants:
//   - the entry block has no predecessors;
//   - pred/succ lists are mutually consistent (with multiplicity);
//   - every block ends in a terminator with the correct successor count;
//   - phi input counts match predecessor counts;
//   - node Block pointers match the block containing the node;
//   - no nil inputs; value inputs have value kinds;
//   - side-effecting nodes and deopts carry a FrameState;
//   - every node referenced as an input is placed in some block;
//   - every block in g.Blocks is reachable from the entry, and every
//     block reachable from the entry is listed in g.Blocks.
func Verify(g *Graph) error {
	if len(g.Blocks) == 0 {
		return fmt.Errorf("ir: graph has no blocks")
	}
	if len(g.Entry().Preds) != 0 {
		return fmt.Errorf("ir: entry block has %d preds", len(g.Entry().Preds))
	}
	// Membership is by ID into tables sized from the graph's ID counters,
	// holding the pointer: a block or node that merely shares an ID with a
	// member (smuggled in from another graph, say) is not one.
	blockSet := make([]*Block, g.nextBlockID)
	inGraph := func(b *Block) bool {
		return b != nil && b.ID >= 0 && b.ID < len(blockSet) && blockSet[b.ID] == b
	}
	for _, b := range g.Blocks {
		if b.ID < 0 || b.ID >= len(blockSet) {
			return fmt.Errorf("ir: %s has an ID outside the graph's range [0,%d)", b, len(blockSet))
		}
		if blockSet[b.ID] != nil {
			return fmt.Errorf("ir: two blocks in g.Blocks share ID %d", b.ID)
		}
		blockSet[b.ID] = b
	}

	// Reachability: walk the successor graph from the entry. Both
	// directions must agree with g.Blocks — an unreachable block left in
	// the list is stale state (phases must RemoveDeadBlocks), and a
	// reachable block missing from the list would be skipped by every
	// later phase while still being executed.
	reached := make([]bool, len(blockSet))
	work := []*Block{g.Entry()}
	reached[g.Entry().ID] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs {
			if !inGraph(s) {
				return fmt.Errorf("ir: %s is reachable from entry but missing from g.Blocks", s)
			}
			if !reached[s.ID] {
				reached[s.ID] = true
				work = append(work, s)
			}
		}
	}
	for _, b := range g.Blocks {
		if !reached[b.ID] {
			return fmt.Errorf("ir: %s is unreachable from entry but listed in g.Blocks", b)
		}
	}
	placed := make(placedNodes, g.nextNodeID)
	for _, b := range g.Blocks {
		for _, n := range b.Phis {
			if err := placed.add(n); err != nil {
				return err
			}
		}
		for _, n := range b.Nodes {
			if err := placed.add(n); err != nil {
				return err
			}
		}
		if b.Term != nil {
			if err := placed.add(b.Term); err != nil {
				return err
			}
		}
	}

	for _, b := range g.Blocks {
		// Terminator checks.
		t := b.Term
		if t == nil {
			return fmt.Errorf("ir: %s has no terminator", b)
		}
		if !t.Op.IsTerminator() {
			return fmt.Errorf("ir: %s terminator is %s", b, t.Op)
		}
		wantSuccs := 0
		switch t.Op {
		case OpIf:
			wantSuccs = 2
			if len(t.Inputs) != 1 {
				return fmt.Errorf("ir: %s If has %d inputs", b, len(t.Inputs))
			}
			if t.Inputs[0].Kind != bc.KindInt {
				return fmt.Errorf("ir: %s If condition %s is not int", b, t.Inputs[0])
			}
		case OpGoto:
			wantSuccs = 1
		case OpReturn:
			if g.Method != nil {
				want := 0
				if g.Method.Ret != bc.KindVoid {
					want = 1
				}
				if len(t.Inputs) != want {
					return fmt.Errorf("ir: %s Return has %d inputs, want %d", b, len(t.Inputs), want)
				}
			}
		case OpThrow:
			if len(t.Inputs) != 1 {
				return fmt.Errorf("ir: %s Throw has %d inputs", b, len(t.Inputs))
			}
			// A covered throw transfers to its dispatch block; an
			// uncovered one unwinds out of the method.
			if len(b.Succs) == 1 {
				wantSuccs = 1
			}
		case OpDeopt:
			if t.FrameState == nil {
				return fmt.Errorf("ir: %s Deopt without FrameState", b)
			}
		case OpOnException:
			wantSuccs = 2
			if len(t.Inputs) != 1 {
				return fmt.Errorf("ir: %s OnException has %d inputs", b, len(t.Inputs))
			}
			if len(b.Nodes) == 0 || b.Nodes[len(b.Nodes)-1] != t.Inputs[0] {
				return fmt.Errorf("ir: %s OnException does not guard the block's last node", b)
			}
		case OpUnwind:
			wantSuccs = 0
		}
		if len(b.Succs) != wantSuccs {
			return fmt.Errorf("ir: %s (%s) has %d succs, want %d", b, t.Op, len(b.Succs), wantSuccs)
		}

		// Pred/succ consistency with multiplicity.
		for _, s := range b.Succs {
			if !inGraph(s) {
				return fmt.Errorf("ir: %s has successor %s not in graph", b, s)
			}
			if countBlocks(b.Succs, s) != countBlocks(s.Preds, b) {
				return fmt.Errorf("ir: edge %s->%s multiplicity mismatch", b, s)
			}
		}
		for _, p := range b.Preds {
			if !inGraph(p) {
				return fmt.Errorf("ir: %s has predecessor %s not in graph", b, p)
			}
		}

		// Phi checks.
		for _, p := range b.Phis {
			if p.Op != OpPhi {
				return fmt.Errorf("ir: %s phi list contains %s", b, p.Op)
			}
			if len(p.Inputs) != len(b.Preds) {
				return fmt.Errorf("ir: %s phi v%d has %d inputs for %d preds",
					b, p.ID, len(p.Inputs), len(b.Preds))
			}
		}

		// Per-node checks.
		check := func(n *Node) error {
			if n.Block != b {
				return fmt.Errorf("ir: v%d (%s) in %s has Block=%v", n.ID, n.Op, b, n.Block)
			}
			for i, in := range n.Inputs {
				if in == nil {
					return fmt.Errorf("ir: v%d (%s) has nil input %d", n.ID, n.Op, i)
				}
				if !placed.has(in) {
					return fmt.Errorf("ir: v%d (%s) input v%d (%s) is not placed in any block",
						n.ID, n.Op, in.ID, in.Op)
				}
				// OnException's input names the guarded node, not a value
				// use — the guard may be a void store or call.
				if in.Kind == bc.KindVoid && n.Op != OpOnException {
					return fmt.Errorf("ir: v%d (%s) uses void node v%d (%s)", n.ID, n.Op, in.ID, in.Op)
				}
			}
			if n.Op.HasSideEffect() && n.FrameState == nil {
				return fmt.Errorf("ir: side-effecting v%d (%s) has no FrameState", n.ID, n.Op)
			}
			if n.FrameState != nil {
				if err := verifyFrameState(n.FrameState, placed); err != nil {
					return fmt.Errorf("ir: v%d (%s): %w", n.ID, n.Op, err)
				}
			}
			if err := verifyArity(n); err != nil {
				return fmt.Errorf("ir: %s: %w", b, err)
			}
			return nil
		}
		for _, n := range b.Phis {
			if err := check(n); err != nil {
				return err
			}
		}
		for _, n := range b.Nodes {
			if n.Op.IsTerminator() {
				return fmt.Errorf("ir: %s body contains terminator v%d (%s)", b, n.ID, n.Op)
			}
			if n.Op == OpPhi {
				return fmt.Errorf("ir: %s body contains phi v%d", b, n.ID)
			}
			if err := check(n); err != nil {
				return err
			}
		}
		if err := check(t); err != nil {
			return err
		}
	}
	return nil
}

// placedNodes is the set of nodes placed in the graph's blocks: slot n.ID
// holds n.
type placedNodes []*Node

func (p placedNodes) has(n *Node) bool {
	return n.ID >= 0 && n.ID < len(p) && p[n.ID] == n
}

// add places n. A node listed twice is left to the per-node checks (its
// Block pointer cannot match both places).
func (p placedNodes) add(n *Node) error {
	if n.ID < 0 || n.ID >= len(p) {
		return fmt.Errorf("ir: v%d (%s) has an ID outside the graph's range [0,%d)", n.ID, n.Op, len(p))
	}
	if p[n.ID] != nil && p[n.ID] != n {
		return fmt.Errorf("ir: two placed nodes share ID v%d (%s and %s)", n.ID, p[n.ID].Op, n.Op)
	}
	p[n.ID] = n
	return nil
}

func countBlocks(list []*Block, b *Block) int {
	c := 0
	for _, x := range list {
		if x == b {
			c++
		}
	}
	return c
}

func verifyFrameState(fs *FrameState, placed placedNodes) error {
	for s := fs; s != nil; s = s.Outer {
		if s.Method == nil {
			return fmt.Errorf("frame state without method")
		}
		if s.BCI < 0 || s.BCI >= len(s.Method.Code) {
			return fmt.Errorf("frame state bci %d out of range for %s", s.BCI, s.Method.QualifiedName())
		}
		if len(s.Locals) != s.Method.NumLocals() {
			return fmt.Errorf("frame state has %d locals for %s (want %d)",
				len(s.Locals), s.Method.QualifiedName(), s.Method.NumLocals())
		}
		chk := func(n *Node) error {
			if n != nil && !placed.has(n) {
				return fmt.Errorf("frame state references unplaced v%d (%s)", n.ID, n.Op)
			}
			return nil
		}
		for _, n := range s.Locals {
			if err := chk(n); err != nil {
				return err
			}
		}
		for _, n := range s.Stack {
			if err := chk(n); err != nil {
				return err
			}
		}
		for _, vo := range s.VirtualObjects {
			if vo.Object == nil || vo.Object.Op != OpVirtualObject {
				return fmt.Errorf("virtual object state without OpVirtualObject node")
			}
			for _, n := range vo.Values {
				if err := chk(n); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func verifyArity(n *Node) error {
	want := -1
	switch n.Op {
	case OpParam, OpConst, OpConstNull, OpRand, OpLoadStatic, OpVirtualObject, OpNew, OpDeopt,
		OpExceptionObject, OpUnwind:
		want = 0
	case OpNeg, OpInstanceOf, OpNewArray, OpLoadField, OpStoreStatic,
		OpArrayLength, OpMonitorEnter, OpMonitorExit, OpPrint, OpThrow, OpOnException:
		want = 1
	case OpArith, OpCmp, OpRefEq, OpStoreField, OpLoadIndexed:
		want = 2
	case OpStoreIndexed:
		want = 3
	}
	if want >= 0 && len(n.Inputs) != want {
		return fmt.Errorf("v%d (%s) has %d inputs, want %d", n.ID, n.Op, len(n.Inputs), want)
	}
	return nil
}
