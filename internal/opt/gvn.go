package opt

import (
	"encoding/binary"

	"pea/internal/bc"
	"pea/internal/ir"
)

// GVN performs dominance-based global value numbering over pure nodes: a
// pure node is replaced by an equivalent node computed in a dominating
// block (or earlier in the same block).
type GVN struct{}

// Name implements Phase.
func (GVN) Name() string { return "gvn" }

// gvnInline is the number of inputs a gvnKey holds in place; only phis of
// wider merges spill into gvnKey.more.
const gvnInline = 4

// gvnKey is the value signature of a pure node: two nodes with equal keys
// compute the same value wherever both are available. Inputs are named by
// node ID plus one (0 = no such input, -1 = a nil phi input). Phis carry
// their block, since a phi's value depends on the edge taken into it.
type gvnKey struct {
	op     ir.Op
	kind   bc.Kind
	aux2   bc.Op
	cond   bc.Cond
	block  int32 // block ID plus one for phis, 0 otherwise
	auxInt int64
	class  *bc.Class
	field  *bc.Field
	in     [gvnInline]int32
	more   string // inputs past gvnInline, four bytes each
}

// Run implements Phase. It costs one walk over the pure nodes and, when
// anything was found, one walk over the graph: a duplicate is taken out of
// its block on the spot and recorded in a substitution, which the keys of
// later nodes read their inputs through and which is applied to the whole
// graph once at the end.
func (GVN) Run(g *ir.Graph) (bool, error) {
	changed := g.RemoveDeadBlocks()
	dom := ir.NewDomTree(g)
	// RPO visits dominators before dominated blocks, so one global table
	// of representatives works: a candidate with the same key stands for
	// n if its block dominates n's. table holds the first candidate of
	// each key and next chains later ones, in insertion order. It is made
	// once, with room for every phi and pure node, so it never grows.
	candidates := 0
	for _, b := range dom.RPO {
		candidates += len(b.Phis)
		for _, n := range b.Nodes {
			if n.Pure() && n.Op != ir.OpPhi && n.Op != ir.OpVirtualObject {
				candidates++
			}
		}
	}
	table := make(map[gvnKey]*ir.Node, candidates)
	next := make([]*ir.Node, g.NumNodeIDs())
	var sub ir.Substitution
	// replaced reports whether an earlier node stands for n; if none does,
	// n becomes a candidate itself.
	replaced := func(n *ir.Node) bool {
		key := keyOf(sub, n)
		var last *ir.Node
		for cand := table[key]; cand != nil; cand = next[cand.ID] {
			if dom.Dominates(cand.Block, n.Block) {
				sub.Add(g, n, cand)
				n.Block = nil
				return true
			}
			last = cand
		}
		if last == nil {
			table[key] = n
		} else {
			next[last.ID] = n
		}
		return false
	}
	keepPhi := func(n *ir.Node) bool { return !replaced(n) }
	keepNode := func(n *ir.Node) bool {
		return !n.Pure() || n.Op == ir.OpPhi || n.Op == ir.OpVirtualObject || !replaced(n)
	}
	for _, b := range dom.RPO {
		b.Phis = filterNodes(b.Phis, keepPhi)
		b.Nodes = filterNodes(b.Nodes, keepNode)
	}
	if sub == nil {
		return changed, nil
	}
	g.Substitute(sub)
	return true, nil
}

// keyOf builds n's signature, reading its inputs through the pending
// substitution sub. Identical phis of one block merge; the key of any other
// node ignores where it is placed.
func keyOf(sub ir.Substitution, n *ir.Node) gvnKey {
	key := gvnKey{op: n.Op, kind: n.Kind, aux2: n.Aux2, cond: n.Cond,
		auxInt: n.AuxInt, class: n.Class, field: n.Field}
	if n.Op == ir.OpPhi {
		key.block = int32(n.Block.ID) + 1
	}
	var more []byte
	for i, in := range n.Inputs {
		id := int32(-1)
		if in = sub.Resolve(in); in != nil {
			id = int32(in.ID) + 1
		}
		if i < gvnInline {
			key.in[i] = id
		} else {
			more = binary.LittleEndian.AppendUint32(more, uint32(id))
		}
	}
	key.more = string(more)
	return key
}

// filterNodes keeps, in place and in order, the nodes of list for which
// keep reports true. keep is called once per node, first to last: the
// phases' predicates record what they decide.
func filterNodes(list []*ir.Node, keep func(*ir.Node) bool) []*ir.Node {
	kept := list[:0]
	for _, n := range list {
		if keep(n) {
			kept = append(kept, n)
		}
	}
	clear(list[len(kept):])
	return kept
}
