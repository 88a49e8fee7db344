package opt

import (
	"pea/internal/bc"
	"pea/internal/ir"
	"pea/internal/rt"
)

// Canonicalize folds constants, applies algebraic identities, simplifies
// trivial phis, and statically resolves reference equalities and type
// checks where the IR proves them. It matches the role of Graal's
// canonicalizer, with which the paper's PEA cooperates (§5: "equality
// checks on object references... type checks on virtual objects can be
// performed at compile time" rely on this machinery to clean up).
type Canonicalize struct{}

// Name implements Phase.
func (Canonicalize) Name() string { return "canonicalize" }

// Run implements Phase.
func (Canonicalize) Run(g *ir.Graph) (bool, error) {
	changed := false
	for {
		c := runCanonOnce(g)
		changed = changed || c
		if !c {
			return changed, nil
		}
	}
}

// canonSweep is one pass over the graph. Replacements are not applied as
// they are found: a replaced node leaves its block and enters sub, the
// sweep reads every input it inspects through sub, and the graph is
// rewritten once when the sweep ends.
type canonSweep struct {
	g     *ir.Graph
	bound int // NumNodeIDs when the sweep began: IDs from here on are its own constants
	sub   ir.Substitution
}

func (c *canonSweep) replace(n, v *ir.Node) {
	c.sub.Add(c.g, n, v)
	n.Block = nil
}

// resolveInputs brings n's own inputs up to date with the replacements
// made so far in the sweep.
func (c *canonSweep) resolveInputs(n *ir.Node) {
	if c.sub == nil {
		return
	}
	for i, in := range n.Inputs {
		n.Inputs[i] = c.sub.Resolve(in)
	}
}

func runCanonOnce(g *ir.Graph) bool {
	c := canonSweep{g: g, bound: g.NumNodeIDs()}
	for _, b := range g.Blocks {
		// Trivial phis: all inputs identical (ignoring self-references).
		b.Phis = filterNodes(b.Phis, func(phi *ir.Node) bool {
			c.resolveInputs(phi)
			v := trivialPhiValue(phi)
			if v != nil {
				c.replace(phi, v)
			}
			return v == nil
		})
		// Each node yields itself or, in its place, the fresh constant it
		// folds to, or nothing when an existing value stands for it — so
		// the list is rewritten in place.
		nodes := b.Nodes
		kept := nodes[:0]
		for _, n := range nodes {
			// A node guarded by an OnException terminator must stay the
			// block's last node; folding it away would orphan the guard.
			// PEA removes provably-safe guards itself.
			guarded := b.Term != nil && b.Term.Op == ir.OpOnException && b.Term.Inputs[0] == n
			var v *ir.Node
			if !guarded {
				v = c.value(n)
			}
			if v == nil || v == n {
				kept = append(kept, n)
				continue
			}
			// Division, remainder, and ArrayLength are not Pure() because
			// they can trap — but value only rewrites them when the trap
			// provably cannot happen (non-zero constant divisor; array
			// from a non-null NewArray or Materialize), so n leaves the
			// block whatever it is; leaving it would refold it forever.
			c.replace(n, v)
			if v.ID >= c.bound { // a fresh constant
				v.Block = b
				kept = append(kept, v)
			}
		}
		clear(nodes[len(kept):])
		b.Nodes = kept
	}
	if c.sub == nil {
		return false
	}
	g.Substitute(c.sub)
	return true
}

// trivialPhiValue returns the unique non-self input of a phi, or nil if the
// phi is not trivial.
func trivialPhiValue(phi *ir.Node) *ir.Node {
	var v *ir.Node
	for _, in := range phi.Inputs {
		if in == phi || in == nil {
			continue
		}
		if v == nil {
			v = in
		} else if v != in {
			return nil
		}
	}
	return v
}

// value returns a simplified replacement for n, or nil: one of n's inputs,
// or a fresh constant that the caller places where n stood.
func (c *canonSweep) value(n *ir.Node) *ir.Node {
	mkConst := func(v int64) *ir.Node {
		k := c.g.NewNode(ir.OpConst, bc.KindInt)
		k.AuxInt = v
		k.BCI = n.BCI
		return k
	}
	c.resolveInputs(n)
	// oplint:ignore — folding rules exist only for the value ops below;
	// ops without a rule are simply not rewritten.
	switch n.Op {
	case ir.OpArith:
		x, y := n.Inputs[0], n.Inputs[1]
		if x.IsConst() && y.IsConst() {
			if r, why := rt.Arith(n.Aux2, x.AuxInt, y.AuxInt); why == "" {
				return mkConst(r)
			}
			return nil // constant div/rem by zero: keep the trap
		}
		// oplint:ignore — algebraic identities for a few operators; the
		// rest fall through to generic handling.
		switch n.Aux2 {
		case bc.OpAdd:
			if x.IsConst() && x.AuxInt == 0 {
				return y
			}
			if y.IsConst() && y.AuxInt == 0 {
				return x
			}
		case bc.OpSub:
			if y.IsConst() && y.AuxInt == 0 {
				return x
			}
			if x == y {
				return mkConst(0)
			}
		case bc.OpMul:
			if x.IsConst() && x.AuxInt == 1 {
				return y
			}
			if y.IsConst() && y.AuxInt == 1 {
				return x
			}
			if x.IsConst() && x.AuxInt == 0 || y.IsConst() && y.AuxInt == 0 {
				return mkConst(0)
			}
		case bc.OpDiv:
			if y.IsConst() && y.AuxInt == 1 {
				return x
			}
		case bc.OpAnd, bc.OpOr:
			if x == y {
				return x
			}
		case bc.OpXor:
			if x == y {
				return mkConst(0)
			}
		case bc.OpShl, bc.OpShr, bc.OpUShr:
			if y.IsConst() && y.AuxInt == 0 {
				return x
			}
		}
	case ir.OpNeg:
		if n.Inputs[0].IsConst() {
			return mkConst(-n.Inputs[0].AuxInt)
		}
	case ir.OpCmp:
		x, y := n.Inputs[0], n.Inputs[1]
		if x.IsConst() && y.IsConst() {
			return mkConst(b2i(n.Cond.EvalInt(x.AuxInt, y.AuxInt)))
		}
		if x == y {
			switch n.Cond {
			case bc.CondEQ, bc.CondLE, bc.CondGE:
				return mkConst(1)
			case bc.CondNE, bc.CondLT, bc.CondGT:
				return mkConst(0)
			}
		}
	case ir.OpRefEq:
		x, y := n.Inputs[0], n.Inputs[1]
		eq := -1 // unknown
		switch {
		case x == y:
			eq = 1
		case x.IsNullConst() && y.IsNullConst():
			eq = 1
		case x.Op == ir.OpNew && y.IsNullConst(),
			y.Op == ir.OpNew && x.IsNullConst(),
			x.Op == ir.OpMaterialize && y.IsNullConst(),
			y.Op == ir.OpMaterialize && x.IsNullConst():
			eq = 0
		case x.Op == ir.OpNew && y.Op == ir.OpNew && x != y:
			eq = 0
		}
		if eq >= 0 {
			want := eq == 1
			if n.Cond == bc.CondNE {
				want = !want
			}
			return mkConst(b2i(want))
		}
	case ir.OpInstanceOf:
		x := n.Inputs[0]
		if x.IsNullConst() {
			return mkConst(0)
		}
		if x.Op == ir.OpNew || (x.Op == ir.OpMaterialize && x.Class != nil) {
			return mkConst(b2i(x.Class.IsSubclassOf(n.Class)))
		}
		if x.Op == ir.OpNewArray || (x.Op == ir.OpMaterialize && x.Class == nil) {
			return mkConst(0)
		}
	case ir.OpArrayLength:
		arr := n.Inputs[0]
		if arr.Op == ir.OpNewArray {
			// arr may not have been visited yet, so its input is read
			// through the substitution here.
			if l := c.sub.Resolve(arr.Inputs[0]); l.IsConst() && l.AuxInt >= 0 {
				return mkConst(l.AuxInt)
			}
		}
		if arr.Op == ir.OpMaterialize && arr.Class == nil {
			return mkConst(arr.AuxInt)
		}
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
