package ir

import (
	"encoding/json"
	"fmt"
	"strings"

	"pea/internal/bc"
)

// Resolver resolves class names to linked bc entities during graph
// decoding. *bc.Program satisfies it. Decoding always rebinds the graph to
// the resolver's program: a persisted artifact carries only names, and the
// decoded graph's Class/Field/Method pointers are those of the local link,
// which is what makes artifacts produced by one process installable in
// another (pointer identity matters for subclass tests and vtables).
type Resolver interface {
	ClassByName(name string) *bc.Class
}

// The JSON graph model. Nodes are referenced everywhere by their ID (-1 for
// nil slots); frame states by index into the state table (-1 for none);
// blocks by their ID. The model is self-describing (op names, qualified
// entity names) so a stale or hand-edited file fails decoding with a
// useful error instead of silently resolving to the wrong entity.
type jsonGraph struct {
	Method        string      `json:"method"`
	IsOSR         bool        `json:"isOSR,omitempty"`
	OSREntryBCI   int         `json:"osrEntryBCI,omitempty"`
	NextNodeID    int         `json:"nextNodeID"`
	NextBlockID   int         `json:"nextBlockID"`
	NextVirtualID int64       `json:"nextVirtualID"`
	Nodes         []jsonNode  `json:"nodes"`
	Blocks        []jsonBlock `json:"blocks"`
	States        []jsonState `json:"states,omitempty"`
}

type jsonNode struct {
	ID          int    `json:"id"`
	Op          string `json:"op"`
	Kind        uint8  `json:"kind,omitempty"`
	Inputs      []int  `json:"inputs,omitempty"`
	AuxInt      int64  `json:"auxInt,omitempty"`
	AuxLen      int64  `json:"auxLen,omitempty"`
	AuxLock     int    `json:"auxLock,omitempty"`
	Aux2        uint8  `json:"aux2,omitempty"`
	Cond        uint8  `json:"cond,omitempty"`
	Class       string `json:"class,omitempty"`
	FieldClass  string `json:"fieldClass,omitempty"`
	FieldName   string `json:"fieldName,omitempty"`
	FieldStatic bool   `json:"fieldStatic,omitempty"`
	Method      string `json:"methodRef,omitempty"`
	Origin      string `json:"origin,omitempty"`
	ElemKind    uint8  `json:"elemKind,omitempty"`
	State       int    `json:"state"`
	DeoptReason string `json:"deoptReason,omitempty"`
	Action      uint8  `json:"action,omitempty"`
	BCI         int    `json:"bci"`
}

type jsonBlock struct {
	ID    int   `json:"id"`
	Phis  []int `json:"phis,omitempty"`
	Nodes []int `json:"nodes,omitempty"`
	Term  int   `json:"term"`
	Preds []int `json:"preds,omitempty"`
	Succs []int `json:"succs,omitempty"`
}

type jsonState struct {
	Method  string     `json:"method"`
	BCI     int        `json:"bci"`
	Locals  []int      `json:"locals,omitempty"`
	Stack   []int      `json:"stack,omitempty"`
	Outer   int        `json:"outer"`
	Virtual []jsonVirt `json:"virtual,omitempty"`
}

type jsonVirt struct {
	Object    int   `json:"object"`
	Values    []int `json:"values,omitempty"`
	LockDepth int   `json:"lockDepth,omitempty"`
}

// opByName inverts opNames for decoding.
var opByName = func() map[string]Op {
	m := make(map[string]Op, len(opNames))
	for op, name := range opNames {
		if op != int(OpInvalid) {
			m[name] = Op(op)
		}
	}
	return m
}()

// EncodeJSON serializes g into the artifact store's payload format:
// every node, block, and frame state flattened into ID-referenced tables,
// with bc entities (classes, fields, methods) reduced to their qualified
// names. DecodeJSON reverses it against any program whose content matches.
func EncodeJSON(g *Graph) ([]byte, error) {
	enc := &encoder{
		nodeSeen:  make(map[int]*Node),
		stateIdx:  make(map[*FrameState]int),
		nodeOrder: nil,
	}
	// Collect placed nodes in deterministic block order, then chase
	// references (inputs, frame states) for any floating nodes so the
	// table is closed under reachability.
	g.ForEachNode(func(_ *Block, n *Node) { enc.addNode(n) })
	for i := 0; i < len(enc.nodeOrder); i++ { // nodeOrder grows while chasing
		n := enc.nodeOrder[i]
		for _, in := range n.Inputs {
			enc.addNode(in)
		}
		if n.FrameState != nil {
			n.FrameState.ForEachValue(func(v *Node) { enc.addNode(v) })
		}
	}
	if enc.err != nil {
		return nil, enc.err
	}

	jg := jsonGraph{
		Method:        g.Method.QualifiedName(),
		IsOSR:         g.IsOSR,
		OSREntryBCI:   g.OSREntryBCI,
		NextNodeID:    g.nextNodeID,
		NextBlockID:   g.nextBlockID,
		NextVirtualID: g.nextVirtualID,
	}
	for _, n := range enc.nodeOrder {
		jn, err := encodeNode(n, enc)
		if err != nil {
			return nil, err
		}
		jg.Nodes = append(jg.Nodes, jn)
	}
	for _, b := range g.Blocks {
		jb := jsonBlock{ID: b.ID, Term: -1}
		for _, n := range b.Phis {
			jb.Phis = append(jb.Phis, n.ID)
		}
		for _, n := range b.Nodes {
			jb.Nodes = append(jb.Nodes, n.ID)
		}
		if b.Term != nil {
			jb.Term = b.Term.ID
		}
		for _, p := range b.Preds {
			jb.Preds = append(jb.Preds, p.ID)
		}
		for _, s := range b.Succs {
			jb.Succs = append(jb.Succs, s.ID)
		}
		jg.Blocks = append(jg.Blocks, jb)
	}
	jg.States = enc.states
	return json.Marshal(&jg)
}

type encoder struct {
	nodeSeen  map[int]*Node
	nodeOrder []*Node
	stateIdx  map[*FrameState]int
	states    []jsonState
	err       error
}

func (e *encoder) addNode(n *Node) {
	if n == nil || e.err != nil {
		return
	}
	if prev, ok := e.nodeSeen[n.ID]; ok {
		if prev != n {
			e.err = fmt.Errorf("ir: encode: two distinct nodes share id v%d", n.ID)
		}
		return
	}
	e.nodeSeen[n.ID] = n
	e.nodeOrder = append(e.nodeOrder, n)
}

// stateRef interns one frame state chain, returning its table index.
func (e *encoder) stateRef(fs *FrameState) int {
	if fs == nil {
		return -1
	}
	if i, ok := e.stateIdx[fs]; ok {
		return i
	}
	i := len(e.states)
	e.stateIdx[fs] = i
	e.states = append(e.states, jsonState{}) // reserve slot; fill below
	js := jsonState{
		Method: fs.Method.QualifiedName(),
		BCI:    fs.BCI,
		Locals: nodeIDs(fs.Locals),
		Stack:  nodeIDs(fs.Stack),
		Outer:  e.stateRef(fs.Outer),
	}
	for _, vo := range fs.VirtualObjects {
		js.Virtual = append(js.Virtual, jsonVirt{
			Object:    vo.Object.ID,
			Values:    nodeIDs(vo.Values),
			LockDepth: vo.LockDepth,
		})
	}
	e.states[i] = js
	return i
}

func nodeIDs(ns []*Node) []int {
	if len(ns) == 0 {
		return nil
	}
	out := make([]int, len(ns))
	for i, n := range ns {
		if n == nil {
			out[i] = -1
		} else {
			out[i] = n.ID
		}
	}
	return out
}

func encodeNode(n *Node, e *encoder) (jsonNode, error) {
	jn := jsonNode{
		ID:          n.ID,
		Op:          n.Op.String(),
		Kind:        uint8(n.Kind),
		Inputs:      nodeIDs(n.Inputs),
		AuxInt:      n.AuxInt,
		AuxLen:      n.AuxLen,
		AuxLock:     n.AuxLock,
		Aux2:        uint8(n.Aux2),
		Cond:        uint8(n.Cond),
		ElemKind:    uint8(n.ElemKind),
		State:       e.stateRef(n.FrameState),
		DeoptReason: n.DeoptReason,
		Action:      uint8(n.Action),
		BCI:         n.BCI,
	}
	if _, ok := opByName[jn.Op]; !ok {
		return jn, fmt.Errorf("ir: encode: v%d has unknown op %s", n.ID, jn.Op)
	}
	if n.Class != nil {
		jn.Class = n.Class.Name
	}
	if n.Field != nil {
		jn.FieldClass = n.Field.Class.Name
		jn.FieldName = n.Field.Name
		jn.FieldStatic = n.Field.Static
	}
	if n.Method != nil {
		jn.Method = n.Method.QualifiedName()
	}
	if n.Origin != nil {
		jn.Origin = n.Origin.QualifiedName()
	}
	return jn, nil
}

// maxDecodedID bounds the node and block IDs, and the ID counters, of a
// decoded graph — two orders of magnitude above anything the pipeline
// builds, and small enough that a table indexed by ID stays a few megabytes.
const maxDecodedID = 1 << 20

// DecodeJSON rebuilds a graph from EncodeJSON output, rebinding every
// class, field, and method reference against r's program. Any
// inconsistency — unknown op or entity name, dangling node/block/state
// reference, duplicate IDs — fails with an error, never a panic: decoding
// untrusted bytes is the disk-cache trust boundary's first gate (the
// second is the install-boundary check pass).
func DecodeJSON(data []byte, r Resolver) (*Graph, error) {
	if r == nil {
		return nil, fmt.Errorf("ir: decode: nil resolver")
	}
	var jg jsonGraph
	if err := json.Unmarshal(data, &jg); err != nil {
		return nil, fmt.Errorf("ir: decode: %w", err)
	}
	d := &decoder{r: r}
	method, err := d.method(jg.Method)
	if err != nil {
		return nil, err
	}

	// Verify and the passes size tables by the ID counters, so what the
	// bytes claim for them is bounded before anything allocates by it.
	if jg.NextNodeID > maxDecodedID || jg.NextBlockID > maxDecodedID {
		return nil, fmt.Errorf("ir: decode: id counters %d/%d out of range", jg.NextNodeID, jg.NextBlockID)
	}

	// Pass 1: materialize empty nodes and blocks so references resolve.
	d.nodes = make(map[int]*Node, len(jg.Nodes))
	maxNodeID := -1
	for _, jn := range jg.Nodes {
		if jn.ID < 0 || jn.ID >= maxDecodedID {
			return nil, fmt.Errorf("ir: decode: node id v%d out of range", jn.ID)
		}
		if _, dup := d.nodes[jn.ID]; dup {
			return nil, fmt.Errorf("ir: decode: duplicate node id v%d", jn.ID)
		}
		op, ok := opByName[jn.Op]
		if !ok {
			return nil, fmt.Errorf("ir: decode: v%d: unknown op %q", jn.ID, jn.Op)
		}
		d.nodes[jn.ID] = &Node{ID: jn.ID, Op: op}
		if jn.ID > maxNodeID {
			maxNodeID = jn.ID
		}
	}
	d.blocks = make(map[int]*Block, len(jg.Blocks))
	blocks := make([]*Block, 0, len(jg.Blocks))
	maxBlockID := -1
	for _, jb := range jg.Blocks {
		if jb.ID < 0 || jb.ID >= maxDecodedID {
			return nil, fmt.Errorf("ir: decode: block id b%d out of range", jb.ID)
		}
		if _, dup := d.blocks[jb.ID]; dup {
			return nil, fmt.Errorf("ir: decode: duplicate block id b%d", jb.ID)
		}
		b := &Block{ID: jb.ID}
		d.blocks[jb.ID] = b
		blocks = append(blocks, b)
		if jb.ID > maxBlockID {
			maxBlockID = jb.ID
		}
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("ir: decode: graph has no blocks")
	}

	// Pass 2: decode states (they reference only nodes).
	states := make([]*FrameState, len(jg.States))
	for i := range jg.States {
		states[i] = &FrameState{}
	}
	for i, js := range jg.States {
		fs := states[i]
		if fs.Method, err = d.method(js.Method); err != nil {
			return nil, fmt.Errorf("ir: decode: state %d: %w", i, err)
		}
		fs.BCI = js.BCI
		if fs.Locals, err = d.nodeList(js.Locals); err != nil {
			return nil, fmt.Errorf("ir: decode: state %d locals: %w", i, err)
		}
		if fs.Stack, err = d.nodeList(js.Stack); err != nil {
			return nil, fmt.Errorf("ir: decode: state %d stack: %w", i, err)
		}
		if js.Outer >= 0 {
			if js.Outer >= len(states) {
				return nil, fmt.Errorf("ir: decode: state %d outer %d out of range", i, js.Outer)
			}
			fs.Outer = states[js.Outer]
		}
		for _, jv := range js.Virtual {
			obj, err := d.node(jv.Object)
			if err != nil || obj == nil {
				return nil, fmt.Errorf("ir: decode: state %d virtual object v%d unknown", i, jv.Object)
			}
			vals, err := d.nodeList(jv.Values)
			if err != nil {
				return nil, fmt.Errorf("ir: decode: state %d virtual values: %w", i, err)
			}
			fs.VirtualObjects = append(fs.VirtualObjects, &VirtualObjectState{
				Object:    obj,
				Values:    vals,
				LockDepth: jv.LockDepth,
			})
		}
	}
	// Reject cyclic outer chains (Depth() and the deopt runtime recurse).
	for i := range states {
		seen := make(map[*FrameState]bool)
		for s := states[i]; s != nil; s = s.Outer {
			if seen[s] {
				return nil, fmt.Errorf("ir: decode: state %d has a cyclic outer chain", i)
			}
			seen[s] = true
		}
	}

	// Pass 3: fill the nodes.
	for _, jn := range jg.Nodes {
		n := d.nodes[jn.ID]
		n.Kind = bc.Kind(jn.Kind)
		if n.Inputs, err = d.nodeList(jn.Inputs); err != nil {
			return nil, fmt.Errorf("ir: decode: v%d inputs: %w", jn.ID, err)
		}
		n.AuxInt = jn.AuxInt
		n.AuxLen = jn.AuxLen
		n.AuxLock = jn.AuxLock
		n.Aux2 = bc.Op(jn.Aux2)
		n.Cond = bc.Cond(jn.Cond)
		n.ElemKind = bc.Kind(jn.ElemKind)
		n.DeoptReason = jn.DeoptReason
		n.Action = DeoptAction(jn.Action)
		n.BCI = jn.BCI
		if jn.Class != "" {
			if n.Class = r.ClassByName(jn.Class); n.Class == nil {
				return nil, fmt.Errorf("ir: decode: v%d: unknown class %q", jn.ID, jn.Class)
			}
		}
		if jn.FieldName != "" {
			c := r.ClassByName(jn.FieldClass)
			if c == nil {
				return nil, fmt.Errorf("ir: decode: v%d: unknown class %q", jn.ID, jn.FieldClass)
			}
			if jn.FieldStatic {
				n.Field = c.StaticByName(jn.FieldName)
			} else {
				n.Field = c.FieldByName(jn.FieldName)
			}
			if n.Field == nil {
				return nil, fmt.Errorf("ir: decode: v%d: unknown field %s.%s", jn.ID, jn.FieldClass, jn.FieldName)
			}
		}
		if jn.Method != "" {
			if n.Method, err = d.method(jn.Method); err != nil {
				return nil, fmt.Errorf("ir: decode: v%d: %w", jn.ID, err)
			}
		}
		if jn.Origin != "" {
			if n.Origin, err = d.method(jn.Origin); err != nil {
				return nil, fmt.Errorf("ir: decode: v%d origin: %w", jn.ID, err)
			}
		}
		if jn.State >= 0 {
			if jn.State >= len(states) {
				return nil, fmt.Errorf("ir: decode: v%d: state %d out of range", jn.ID, jn.State)
			}
			n.FrameState = states[jn.State]
		}
	}

	// Pass 4: wire the blocks.
	place := func(id int, b *Block, what string) (*Node, error) {
		n, err := d.node(id)
		if err != nil || n == nil {
			return nil, fmt.Errorf("ir: decode: b%d %s v%d unknown", b.ID, what, id)
		}
		if n.Block != nil {
			return nil, fmt.Errorf("ir: decode: v%d placed twice", id)
		}
		n.Block = b
		return n, nil
	}
	for _, jb := range jg.Blocks {
		b := d.blocks[jb.ID]
		for _, id := range jb.Phis {
			n, err := place(id, b, "phi")
			if err != nil {
				return nil, err
			}
			b.Phis = append(b.Phis, n)
		}
		for _, id := range jb.Nodes {
			n, err := place(id, b, "node")
			if err != nil {
				return nil, err
			}
			b.Nodes = append(b.Nodes, n)
		}
		if jb.Term >= 0 {
			n, err := place(jb.Term, b, "terminator")
			if err != nil {
				return nil, err
			}
			b.Term = n
		}
		for _, id := range jb.Preds {
			p, ok := d.blocks[id]
			if !ok {
				return nil, fmt.Errorf("ir: decode: b%d pred b%d unknown", jb.ID, id)
			}
			b.Preds = append(b.Preds, p)
		}
		for _, id := range jb.Succs {
			s, ok := d.blocks[id]
			if !ok {
				return nil, fmt.Errorf("ir: decode: b%d succ b%d unknown", jb.ID, id)
			}
			b.Succs = append(b.Succs, s)
		}
	}

	g := &Graph{
		Method:        method,
		Blocks:        blocks,
		IsOSR:         jg.IsOSR,
		OSREntryBCI:   jg.OSREntryBCI,
		nextNodeID:    maxInt(jg.NextNodeID, maxNodeID+1),
		nextBlockID:   maxInt(jg.NextBlockID, maxBlockID+1),
		nextVirtualID: jg.NextVirtualID,
	}
	return g, nil
}

type decoder struct {
	r      Resolver
	nodes  map[int]*Node
	blocks map[int]*Block
	// methodMemo caches qualified-name resolution (states repeat it).
	methodMemo map[string]*bc.Method
}

func (d *decoder) node(id int) (*Node, error) {
	if id < 0 {
		return nil, nil
	}
	n, ok := d.nodes[id]
	if !ok {
		return nil, fmt.Errorf("unknown node v%d", id)
	}
	return n, nil
}

func (d *decoder) nodeList(ids []int) ([]*Node, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	out := make([]*Node, len(ids))
	for i, id := range ids {
		n, err := d.node(id)
		if err != nil {
			return nil, err
		}
		out[i] = n
	}
	return out, nil
}

// method resolves a qualified "Class.name" method reference.
func (d *decoder) method(qname string) (*bc.Method, error) {
	if m, ok := d.methodMemo[qname]; ok {
		return m, nil
	}
	cls, name, ok := strings.Cut(qname, ".")
	if !ok {
		return nil, fmt.Errorf("malformed method name %q", qname)
	}
	c := d.r.ClassByName(cls)
	if c == nil {
		return nil, fmt.Errorf("unknown class %q", cls)
	}
	m := c.MethodByName(name)
	if m == nil {
		return nil, fmt.Errorf("unknown method %q", qname)
	}
	if d.methodMemo == nil {
		d.methodMemo = make(map[string]*bc.Method)
	}
	d.methodMemo[qname] = m
	return m, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
