package closure

import (
	"fmt"

	"pea/internal/bc"
	"pea/internal/ir"
)

// move copies one slot to another within one typed array.
type move struct {
	src, dst int32
}

// edge is one lowered CFG edge: the block dispatched next and the phi copy
// performed on the way, already ordered so that plain sequential execution
// has parallel-copy (SSA) semantics.
type edge struct {
	next int
	ints []move
	refs []move
}

// take performs an edge's copies and returns the block to dispatch next. It
// takes the edge's fields, not the edge: closures capture their edges by
// value (one dependent load fewer per branch than through a pointer), and
// passing the struct whole makes the inlined call copy it to the stack
// first — measured at +40 % op_ms on steady-noea whenever the stack
// alignment of the build made that copy miss store forwarding.
func (f *frame) take(ints, refs []move, next int) int {
	for _, mv := range ints {
		f.ints[mv.dst] = f.ints[mv.src]
	}
	for _, mv := range refs {
		f.refs[mv.dst] = f.refs[mv.src]
	}
	return next
}

// maxThread bounds how many forwarding blocks one edge skips. The bound is
// what keeps an empty guest loop (`for(;;){}` is a Goto to itself) entering
// a charged block every iteration, so Env.MaxSteps stays a runaway guard.
const maxThread = 4

// forwards reports whether b does nothing but jump: no phis to receive, no
// nodes, a Goto terminator. The graph builder leaves such blocks wherever it
// split a critical edge.
func (cc *compiler) forwards(b *ir.Block) bool {
	return len(b.Phis) == 0 && len(b.Nodes) == 0 && b != cc.g.Entry() &&
		b.Term != nil && b.Term.Op == ir.OpGoto && len(b.Succs) == 1
}

// edge lowers the CFG edge from → to. Forwarding blocks are threaded: the
// edge lands on the first block with work to do and performs the last
// forwarder's outgoing phi copy itself (a forwarder has no phis, so nothing
// is copied on the way into it). Self-moves are dropped and the rest are
// sequentialized per typed array.
func (cc *compiler) edge(from, to *ir.Block) (edge, error) {
	for hops := 0; hops < maxThread && cc.forwards(to); hops++ {
		from, to = to, to.Succs[0]
	}
	e := edge{next: cc.blkIdx[to.ID]}
	if len(to.Phis) == 0 {
		return e, nil
	}
	idx := to.PredIndex(from)
	if idx < 0 {
		return e, fmt.Errorf("closure: %s is not a predecessor of %s", from, to)
	}
	ints, refs := cc.intMoves[:0], cc.refMoves[:0]
	for _, phi := range to.Phis {
		in := phi.Inputs[idx]
		if in == nil {
			return e, fmt.Errorf("exec: phi v%d missing input %d", phi.ID, idx)
		}
		src, err := cc.slotOf(in, phi.Kind)
		if err != nil {
			return e, err
		}
		dst, err := cc.slotOf(phi, phi.Kind)
		if err != nil {
			return e, err
		}
		if phi.Kind == bc.KindRef {
			refs = append(refs, move{src: src, dst: dst})
		} else {
			ints = append(ints, move{src: src, dst: dst})
		}
	}
	cc.intMoves = sequentialize(ints, func() int32 {
		if cc.scratchInt < 0 {
			cc.scratchInt = cc.newInt()
		}
		return cc.scratchInt
	})
	cc.refMoves = sequentialize(refs, func() int32 {
		if cc.scratchRef < 0 {
			cc.scratchRef = cc.newRef()
		}
		return cc.scratchRef
	})
	// The moves were ordered in the compiler's reused buffers; an edge that
	// still copies gets one exact allocation for both kinds.
	ni, nr := len(cc.intMoves), len(cc.refMoves)
	if ni+nr > 0 {
		mv := make([]move, ni+nr)
		copy(mv, cc.intMoves)
		copy(mv[ni:], cc.refMoves)
		e.ints, e.refs = mv[:ni:ni], mv[ni:]
	}
	return e, nil
}

// sequentialize orders a parallel copy (distinct destinations, all sources
// read before any destination is written) into moves that have the same
// effect executed one after another, reusing par's storage. Self-moves
// vanish. seq[:k] is the emitted prefix: a pending move joins it once no
// pending move still reads its destination; when only cycles remain, one
// destination is saved to the scratch slot, its readers are redirected
// there, and the cycle unwinds. Each destination has one source, so what
// remains after the acyclic moves are disjoint simple cycles, each fully
// unwound before the next is broken: one scratch slot (asked for only if
// needed) serves them all.
func sequentialize(par []move, scratch func() int32) []move {
	seq := par[:0]
	for _, mv := range par {
		if mv.src != mv.dst {
			seq = append(seq, mv)
		}
	}
	for k := 0; k < len(seq); k++ {
		free := -1
		for i := k; i < len(seq); i++ {
			if !readBy(seq[k:], seq[i].dst) {
				free = i
				break
			}
		}
		if free >= 0 {
			seq[k], seq[free] = seq[free], seq[k]
			continue
		}
		saved, tmp := seq[k].dst, scratch()
		for i := k; i < len(seq); i++ {
			if seq[i].src == saved {
				seq[i].src = tmp
			}
		}
		seq = append(seq, move{})
		copy(seq[k+1:], seq[k:])
		seq[k] = move{src: saved, dst: tmp}
	}
	return seq
}

// readBy reports whether any pending move reads slot. A move never reads its
// own destination (self-moves are gone), so the scan needs no exclusion.
func readBy(pending []move, slot int32) bool {
	for _, mv := range pending {
		if mv.src == slot {
			return true
		}
	}
	return false
}
