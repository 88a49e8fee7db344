package ir

import (
	"fmt"
	"strings"

	"pea/internal/bc"
)

// FrameState describes the bytecode-level machine state at a point in the
// method: the method, the bytecode index to resume at, the local variable
// values, and the expression stack contents. After inlining, Outer chains
// to the caller's state at the call site (paper §2, §5.5).
//
// Deoptimization builds interpreter frames from this description. Entries
// that reference OpVirtualObject nodes denote scalar-replaced allocations;
// their contents at this point are recorded in VirtualObjects and are
// materialized by the deopt runtime (paper Figure 8).
type FrameState struct {
	Method *bc.Method
	// BCI is the bytecode index at which the interpreter resumes. The
	// instruction at BCI is re-executed (states are captured before any
	// effect of the instruction at BCI has happened). For Outer states
	// the BCI is the invoke instruction; the deopt runtime completes the
	// call by pushing the inner frame's return value and advancing past
	// the invoke.
	BCI    int
	Locals []*Node // one per local slot; nil = undefined/dead
	Stack  []*Node // expression stack, bottom first
	Outer  *FrameState

	// VirtualObjects describes the field contents of every virtual
	// object referenced (transitively) by this state. Filled in by
	// Partial Escape Analysis.
	VirtualObjects []*VirtualObjectState

	// epoch is the last walk of the owning graph that visited this state
	// (Graph.forEachUse).
	epoch uint32
}

// VirtualObjectState records the state of one scalar-replaced allocation at
// a FrameState: its identity node, its field (or array element) values, and
// the monitor depth to re-establish on materialization.
type VirtualObjectState struct {
	Object    *Node   // the OpVirtualObject node
	Values    []*Node // field values; may reference other OpVirtualObject nodes
	LockDepth int
}

// Copy returns a deep copy of the state chain (sharing the referenced value
// nodes, copying the slices and descriptors).
func (fs *FrameState) Copy() *FrameState {
	if fs == nil {
		return nil
	}
	c := &FrameState{
		Method: fs.Method,
		BCI:    fs.BCI,
		Locals: append([]*Node(nil), fs.Locals...),
		Stack:  append([]*Node(nil), fs.Stack...),
		Outer:  fs.Outer.Copy(),
	}
	for _, vo := range fs.VirtualObjects {
		c.VirtualObjects = append(c.VirtualObjects, &VirtualObjectState{
			Object:    vo.Object,
			Values:    append([]*Node(nil), vo.Values...),
			LockDepth: vo.LockDepth,
		})
	}
	return c
}

// ForEachValue calls f for every value node referenced by the state chain
// (locals, stack, and virtual object field values).
func (fs *FrameState) ForEachValue(f func(n *Node)) {
	for s := fs; s != nil; s = s.Outer {
		for _, n := range s.Locals {
			if n != nil {
				f(n)
			}
		}
		for _, n := range s.Stack {
			if n != nil {
				f(n)
			}
		}
		for _, vo := range s.VirtualObjects {
			f(vo.Object)
			for _, n := range vo.Values {
				if n != nil {
					f(n)
				}
			}
		}
	}
}

// Depth returns the number of chained frames.
func (fs *FrameState) Depth() int {
	d := 0
	for s := fs; s != nil; s = s.Outer {
		d++
	}
	return d
}

// String renders the state chain, innermost first, e.g.
// "@C.m:3 locals=[v1 v2] stack=[v3]".
func (fs *FrameState) String() string {
	if fs == nil {
		return "<nil state>"
	}
	var b strings.Builder
	first := true
	for s := fs; s != nil; s = s.Outer {
		if !first {
			b.WriteString(" <- ")
		}
		first = false
		fmt.Fprintf(&b, "@%s:%d locals=%s stack=%s",
			s.Method.QualifiedName(), s.BCI, fmtNodeList(s.Locals), fmtNodeList(s.Stack))
		for _, vo := range s.VirtualObjects {
			fmt.Fprintf(&b, " virt{v%d=%s", vo.Object.ID, fmtNodeList(vo.Values))
			if vo.LockDepth > 0 {
				fmt.Fprintf(&b, " locks=%d", vo.LockDepth)
			}
			b.WriteString("}")
		}
	}
	return b.String()
}

func fmtNodeList(ns []*Node) string {
	var b strings.Builder
	b.WriteString("[")
	for i, n := range ns {
		if i > 0 {
			b.WriteString(" ")
		}
		if n == nil {
			b.WriteString("_")
		} else {
			fmt.Fprintf(&b, "v%d", n.ID)
		}
	}
	b.WriteString("]")
	return b.String()
}
