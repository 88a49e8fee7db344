// Package build translates bytecode methods into the SSA IR by abstract
// interpretation over the operand stack and local variables, exactly as
// Graal's bytecode parser does for the CGO'14 Partial Escape Analysis
// paper's system: basic blocks are discovered from branch targets, phi
// nodes are inserted at control-flow merges (including loop headers, whose
// back-edge inputs are filled in once the loop body has been translated),
// and every deoptimization-relevant instruction captures a FrameState whose
// local slots are pruned by liveness.
//
// Liveness pruning is load-bearing for the paper's headline pattern (see
// DESIGN.md): without it, dead locals pin loop temporaries into merge
// states and FrameStates, and Partial Escape Analysis would be forced to
// materialize objects that the program can never observe again.
package build

import (
	"fmt"

	"pea/internal/bc"
	"pea/internal/ir"
	"pea/internal/obs"
)

// Build translates m into a fresh IR graph. The method must have passed
// bc.Verify (the assembler and the MiniJava front end both guarantee it);
// inconsistent bytecode is reported as an error rather than a panic.
func Build(m *bc.Method) (*ir.Graph, error) {
	return BuildWith(m, nil)
}

// BuildWith is Build with an observability sink receiving a phase event
// describing the translation (node/block counts). A nil sink is free.
func BuildWith(m *bc.Method, sink *obs.Sink) (*ir.Graph, error) {
	return buildWith(m, 0, false, sink)
}

// BuildOSR translates m into an on-stack-replacement graph entered at the
// loop header entryBCI: instead of the method's parameters, the entry block
// (an OSR preamble) holds one OpParam per local slot live at entryBCI
// (AuxInt = slot) and one per operand-stack slot (AuxInt = NumLocals +
// depth), matching the interpreter frame the VM transfers from. Only code
// reachable from entryBCI is translated, and the preamble's exit state
// feeds the loop-header merge through the same pruned-FrameState machinery
// as a regular loop entry.
func BuildOSR(m *bc.Method, entryBCI int) (*ir.Graph, error) {
	return BuildOSRWith(m, entryBCI, nil)
}

// BuildOSRWith is BuildOSR with an observability sink.
func BuildOSRWith(m *bc.Method, entryBCI int, sink *obs.Sink) (*ir.Graph, error) {
	return buildWith(m, entryBCI, true, sink)
}

func buildWith(m *bc.Method, entry int, osr bool, sink *obs.Sink) (g *ir.Graph, err error) {
	defer func() {
		if r := recover(); r != nil {
			g, err = nil, fmt.Errorf("build: %s: internal error: %v", m.QualifiedName(), r)
		}
	}()
	var span obs.PhaseSpan
	if sink.Traces() {
		// QualifiedName allocates; compute it only when observing.
		phase := "build"
		if osr {
			phase = "build-osr"
		}
		span = obs.StartPhase(sink, phase, m.QualifiedName(), 0, 0)
	}
	b := &builder{m: m, entry: entry, osr: osr}
	g, err = b.build()
	if err != nil {
		return nil, err
	}
	span.End(g.NumNodes(), len(g.Blocks))
	return g, nil
}

// builder holds the per-method translation state.
type builder struct {
	m *bc.Method
	g *ir.Graph

	// entry is the bytecode index translation starts at (0 for a regular
	// build, the hot loop header for an OSR build).
	entry int
	// osr marks an on-stack-replacement build: the entry block is an OSR
	// preamble parameterized by the live locals and stack slots at entry.
	osr bool

	// leaders[pc] is true if pc starts a basic block.
	leaders []bool
	// reach[pc] is true if pc is reachable from the entry.
	reach []bool
	// leaderPCs lists the reachable leaders in pc order, one per block.
	leaderPCs []int
	// blockAt holds, by pc, the IR block a leader pc starts.
	blockAt []*ir.Block
	// succs lists, per leader pc, the successor leader pcs in edge order
	// (taken target first for conditional branches).
	succs [][]int
	// exsuccs lists, per leader pc whose block ends in a covered trapping
	// instruction, the handler pcs its dispatch chain can reach (table
	// order, up to and including the first catch-all entry). These edges
	// participate in reachability, liveness, and reverse postorder, but
	// control flows through the synthesized dispatch chain, not directly.
	exsuccs map[int][]int
	// chains maps such a leader pc to its synthesized dispatch chain.
	chains map[int]*dispatchChain
	// liveAt[pc] has one bool per local slot: live before executing pc.
	liveAt [][]bool

	// exit holds, by block ID, the abstract state at the end of each
	// processed block.
	exit []*absState
	// pendingPhis records merge-block phis whose inputs are filled once
	// every predecessor's exit state exists.
	pendingPhis []pendingPhi
	// zeroOf lazily caches per-block default-value constants used to
	// complete phi inputs for locals that are live-in at a merge but
	// undefined on some path (the interpreter zero-initializes locals).
	zeroOf map[zeroKey]*ir.Node

	params []*ir.Node
}

type zeroKey struct {
	b *ir.Block
	k bc.Kind
}

// dispatchChain is the IR-only block sequence that selects an exception
// handler for one covered trapping instruction: the head holds the
// ExceptionObject node, then one type test per typed table entry (in table
// order), ending in a Goto for a catch-all entry or an Unwind when the
// table is exhausted.
type dispatchChain struct {
	head *ir.Block
	// blocks lists every chain block; all share one exit state (the
	// locals at the trap point with the exception object as the stack).
	blocks []*ir.Block
	excObj *ir.Node
}

// trappingOp reports whether op can raise a catchable trap: intrinsic
// faults (division by zero, null dereference, array bounds, negative array
// size, null monitor) or exceptions propagating out of a callee. OpThrow is
// handled separately as a terminator.
func trappingOp(op bc.Op) bool {
	// oplint:ignore — deliberate allowlist: every op absent here is
	// trap-free by construction, and new trapping ops must opt in.
	switch op {
	case bc.OpDiv, bc.OpRem,
		bc.OpGetField, bc.OpPutField,
		bc.OpArrayLoad, bc.OpArrayStore, bc.OpArrayLen,
		bc.OpNewArray,
		bc.OpMonitorEnter, bc.OpMonitorExit,
		bc.OpInvokeStatic, bc.OpInvokeDirect, bc.OpInvokeVirtual:
		return true
	}
	return false
}

// handlerPCs returns the handler pcs a trap at pc can dispatch to: the
// covering exception-table entries in order, stopping after the first
// catch-all (later entries are shadowed). Nil when pc is uncovered or the
// instruction cannot trap.
func (b *builder) handlerPCs(pc int) []int {
	in := &b.m.Code[pc]
	if !trappingOp(in.Op) && in.Op != bc.OpThrow {
		return nil
	}
	var hs []int
	for i := range b.m.ExceptionTable {
		h := &b.m.ExceptionTable[i]
		if !h.Covers(pc) {
			continue
		}
		hs = append(hs, h.Handler)
		if h.Class == nil {
			break
		}
	}
	return hs
}

// coveringEntries returns the dispatch-relevant exception-table entries for
// pc, in the same order as handlerPCs.
func (b *builder) coveringEntries(pc int) []*bc.ExceptionHandler {
	var es []*bc.ExceptionHandler
	for i := range b.m.ExceptionTable {
		h := &b.m.ExceptionTable[i]
		if !h.Covers(pc) {
			continue
		}
		es = append(es, h)
		if h.Class == nil {
			break
		}
	}
	return es
}

// pendingPhi describes one phi awaiting predecessor inputs: either a local
// slot (slot >= 0) or an operand stack position (slot < 0, depth = ^slot).
type pendingPhi struct {
	block *ir.Block
	phi   *ir.Node
	slot  int
}

// absState is the abstract machine state: one IR value (or nil =
// dead/undefined) per local slot, plus the operand stack.
type absState struct {
	locals []*ir.Node
	stack  []*ir.Node
}

func (s *absState) clone() *absState {
	return &absState{
		locals: append([]*ir.Node(nil), s.locals...),
		stack:  append([]*ir.Node(nil), s.stack...),
	}
}

func (s *absState) push(n *ir.Node) { s.stack = append(s.stack, n) }

func (s *absState) pop() *ir.Node {
	n := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	return n
}

func (b *builder) build() (*ir.Graph, error) {
	m := b.m
	if len(m.Code) == 0 {
		return nil, fmt.Errorf("build: %s has no code", m.QualifiedName())
	}
	if b.entry < 0 || b.entry >= len(m.Code) {
		return nil, fmt.Errorf("build: %s: entry bci %d out of range [0,%d)",
			m.QualifiedName(), b.entry, len(m.Code))
	}
	b.findBlocks()
	b.computeLiveness()

	b.g = ir.NewGraph(m)
	b.blockAt = make([]*ir.Block, len(m.Code))
	b.zeroOf = make(map[zeroKey]*ir.Node)

	// Create IR blocks for every reachable leader. The graph's entry block
	// is reused for the entry pc unless that pc is itself a branch target
	// (a loop header — always the case for an OSR build, where the entry
	// IS the hot loop header), in which case a preamble block holding the
	// parameters is kept as the entry, since the IR entry block must have
	// no predecessors.
	leaderPCs := b.leaderPCs
	entryIsTarget := false
	for _, ss := range b.succs {
		for _, s := range ss {
			if s == b.entry {
				entryIsTarget = true
			}
		}
	}
	for _, hs := range b.exsuccs {
		for _, h := range hs {
			if h == b.entry {
				entryIsTarget = true
			}
		}
	}
	var preamble *ir.Block
	if b.osr || entryIsTarget {
		preamble = b.g.Entry()
		for _, pc := range leaderPCs {
			b.blockAt[pc] = b.g.NewBlock()
		}
	} else {
		b.blockAt[b.entry] = b.g.Entry()
		for _, pc := range leaderPCs {
			if pc != b.entry {
				b.blockAt[pc] = b.g.NewBlock()
			}
		}
	}

	// Wire predecessor lists up front, in deterministic (pc, edge) order,
	// so that merge-block phi inputs have a fixed correspondence. The
	// preamble edge is predecessor 0 of the entry's block. The edges are
	// counted first, so that the lists share one allocation.
	npreds := make([]int32, len(m.Code))
	edges := 0
	for _, pc := range leaderPCs {
		for _, s := range b.succs[pc] {
			npreds[s]++
		}
		edges += len(b.succs[pc])
	}
	if preamble != nil {
		npreds[b.entry]++
		edges++
	}
	preds := make([]*ir.Block, edges)
	for _, pc := range leaderPCs {
		if n := npreds[pc]; n > 0 {
			b.blockAt[pc].Preds, preds = preds[:0:n], preds[n:]
		}
	}
	if preamble != nil {
		entry := b.blockAt[b.entry]
		entry.Preds = append(entry.Preds, preamble)
	}
	for _, pc := range leaderPCs {
		from := b.blockAt[pc]
		for _, s := range b.succs[pc] {
			b.blockAt[s].Preds = append(b.blockAt[s].Preds, from)
		}
	}

	// Synthesize one dispatch chain per block ending in a covered trapping
	// instruction, wiring handler predecessors in deterministic pc order.
	b.chains = make(map[int]*dispatchChain)
	for _, pc := range leaderPCs {
		if len(b.exsuccs[pc]) == 0 {
			continue
		}
		last := b.blockEnd(pc) - 1
		b.chains[pc] = b.newChain(last, b.blockAt[pc], b.coveringEntries(last))
	}
	// Every block of the graph exists now.
	b.exit = make([]*absState, b.g.NumBlockIDs())

	// Place parameters (and the preamble jump) in the entry block. A
	// regular build parameterizes on the method arguments; an OSR build
	// parameterizes on the interpreter frame at the loop header — the
	// liveness-pruned local slots plus the operand stack.
	paramBlock := b.g.Entry()
	var initial *absState
	if b.osr {
		b.g.IsOSR = true
		b.g.OSREntryBCI = b.entry
		initial = &absState{locals: make([]*ir.Node, m.NumLocals())}
		live := b.liveAt[b.entry]
		for s := 0; s < m.NumLocals(); s++ {
			if live == nil || !live[s] {
				continue // dead at the header: never transferred
			}
			p := b.g.NewNode(ir.OpParam, m.LocalKinds[s])
			p.AuxInt = int64(s)
			b.g.Append(paramBlock, p)
			initial.locals[s] = p
		}
		shape, err := bc.StackShape(m, b.entry)
		if err != nil {
			return nil, err
		}
		for d, k := range shape {
			p := b.g.NewNode(ir.OpParam, k)
			p.AuxInt = int64(m.NumLocals() + d)
			b.g.Append(paramBlock, p)
			initial.push(p)
		}
	} else {
		b.params = make([]*ir.Node, m.NumArgs())
		for i := 0; i < m.NumArgs(); i++ {
			kind := m.LocalKinds[i]
			p := b.g.NewNode(ir.OpParam, kind)
			p.AuxInt = int64(i)
			b.g.Append(paramBlock, p)
			b.params[i] = p
		}
		if preamble != nil {
			// The preamble's exit state is the method-entry state:
			// parameters in the argument slots, other locals undefined.
			initial = &absState{locals: make([]*ir.Node, m.NumLocals())}
			copy(initial.locals, b.params)
		}
	}
	if preamble != nil {
		gt := b.g.NewNode(ir.OpGoto, bc.KindVoid)
		gt.Block = preamble
		preamble.Term = gt
		preamble.Succs = []*ir.Block{b.blockAt[b.entry]}
		// Recording the preamble's exit state here lets the entry block
		// (a loop header) be handled by the ordinary merge path in
		// entryState.
		b.exit[preamble.ID] = initial
	}

	// Translate blocks in reverse postorder so every forward predecessor
	// is processed before its successors; back-edge phi inputs are filled
	// afterwards.
	rpo := b.reversePostorder(leaderPCs)
	for _, pc := range rpo {
		if err := b.translateBlock(pc); err != nil {
			return nil, err
		}
	}
	if err := b.fillPhis(); err != nil {
		return nil, err
	}
	return b.g, nil
}

// findBlocks discovers reachable instructions, block leaders, and the
// block-level successor edges.
func (b *builder) findBlocks() {
	code := b.m.Code
	b.reach = make([]bool, len(code))
	b.leaders = make([]bool, len(code))
	b.leaders[b.entry] = true

	// Reachability + leader discovery over instruction successors.
	work := []int{b.entry}
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		if pc < 0 || pc >= len(code) || b.reach[pc] {
			continue
		}
		b.reach[pc] = true
		in := &code[pc]
		// A covered trapping instruction also reaches its handlers (via
		// the dispatch chain), and must end its block so the exceptional
		// edge has a unique source.
		if hs := b.handlerPCs(pc); len(hs) > 0 {
			for _, h := range hs {
				b.leaders[h] = true
				work = append(work, h)
			}
			if in.Op != bc.OpThrow && pc+1 < len(code) {
				b.leaders[pc+1] = true
			}
		}
		switch {
		case in.Op == bc.OpGoto:
			b.leaders[in.Target()] = true
			work = append(work, in.Target())
		case in.Op.IsBranch():
			b.leaders[in.Target()] = true
			if pc+1 < len(code) {
				b.leaders[pc+1] = true
			}
			work = append(work, in.Target(), pc+1)
		case in.Op.IsTerminator(): // return/returnvalue/throw
		default:
			work = append(work, pc+1)
		}
	}

	for pc := range code {
		if b.reach[pc] && b.leaders[pc] {
			b.leaderPCs = append(b.leaderPCs, pc)
		}
	}

	// Block successor edges, per leader. A block has at most two, and
	// the lists share one allocation.
	b.succs = make([][]int, len(code))
	targets := make([]int, 2*len(b.leaderPCs))
	edges := func(pc int, to ...int) {
		b.succs[pc] = targets[:len(to):len(to)]
		targets = targets[copy(targets, to):]
	}
	for _, pc := range b.leaderPCs {
		end := pc
		for !code[end].Op.IsTerminator() && !code[end].Op.IsBranch() {
			if end+1 < len(code) && b.reach[end+1] && b.leaders[end+1] {
				// Falls through into the next block.
				edges(pc, end+1)
				break
			}
			end++
		}
		if len(b.succs[pc]) > 0 {
			continue
		}
		in := &code[end]
		switch {
		case in.Op == bc.OpGoto:
			edges(pc, in.Target())
		case in.Op.IsBranch():
			edges(pc, in.Target(), end+1)
		}
		// A return or throw has no successor.
	}

	// Exceptional successor edges, per leader: the block's last
	// instruction is a covered trapping op (the leader-marking above
	// guarantees such an op ends its block).
	b.exsuccs = make(map[int][]int)
	for _, pc := range b.leaderPCs {
		last := b.blockEnd(pc) - 1
		if hs := b.handlerPCs(last); len(hs) > 0 {
			b.exsuccs[pc] = hs
		}
	}
}

// blockEnd returns the pc one past the last instruction belonging to the
// block led by pc (exclusive bound).
func (b *builder) blockEnd(leader int) int {
	code := b.m.Code
	pc := leader
	for {
		in := &code[pc]
		if in.Op.IsTerminator() || in.Op.IsBranch() {
			return pc + 1
		}
		if pc+1 < len(code) && b.reach[pc+1] && b.leaders[pc+1] {
			return pc + 1
		}
		pc++
	}
}

// reversePostorder orders reachable leader pcs so that every block precedes
// its successors except along back edges.
func (b *builder) reversePostorder(leaders []int) []int {
	visited := make(map[int]bool, len(leaders))
	post := make([]int, 0, len(leaders))
	var dfs func(pc int)
	dfs = func(pc int) {
		if visited[pc] {
			return
		}
		visited[pc] = true
		for _, s := range b.succs[pc] {
			dfs(s)
		}
		for _, s := range b.exsuccs[pc] {
			dfs(s)
		}
		post = append(post, pc)
	}
	dfs(b.entry)
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// computeLiveness computes, for every reachable pc, which local slots are
// live immediately before executing it (classic backward dataflow at block
// granularity, then a backward sweep within each block). FrameStates use
// this to nil out dead slots. The blocks' use, def and live-out sets share
// one allocation, the per-pc rows another, and the fixpoint allocates
// nothing.
func (b *builder) computeLiveness() {
	code := b.m.Code
	nLocals := b.m.NumLocals()
	b.liveAt = make([][]bool, len(code))

	type blockInfo struct {
		leader, end       int
		use, def, liveOut []bool
	}
	nBlocks := len(b.leaderPCs)
	blocks := make([]blockInfo, 0, nBlocks)
	byLeader := make([]int32, len(code)) // index into blocks, by leader pc
	sets := make([]bool, 3*nBlocks*nLocals)
	set := func() []bool {
		r := sets[:nLocals:nLocals]
		sets = sets[nLocals:]
		return r
	}
	pcs := 0
	for _, pc := range b.leaderPCs {
		bi := blockInfo{leader: pc, end: b.blockEnd(pc), use: set(), def: set(), liveOut: set()}
		for i := pc; i < bi.end; i++ {
			in := &code[i]
			// oplint:ignore — liveness only cares about local
			// slot traffic; every other op is a no-op here.
			switch in.Op {
			case bc.OpLoad:
				if !bi.def[in.A] {
					bi.use[in.A] = true
				}
			case bc.OpStore:
				bi.def[in.A] = true
			}
		}
		byLeader[pc] = int32(len(blocks))
		pcs += bi.end - pc
		blocks = append(blocks, bi)
	}
	// flow adds what is live into the blocks led by succs to bi's
	// live-out set and reports whether that grew.
	flow := func(bi *blockInfo, succs []int) bool {
		grew := false
		for _, s := range succs {
			si := &blocks[byLeader[s]]
			for k, out := range bi.liveOut {
				if !out && (si.use[k] || (si.liveOut[k] && !si.def[k])) {
					bi.liveOut[k] = true
					grew = true
				}
			}
		}
		return grew
	}
	for changed := true; changed; {
		changed = false
		for i := len(blocks) - 1; i >= 0; i-- {
			bi := &blocks[i]
			if flow(bi, b.succs[bi.leader]) {
				changed = true
			}
			if flow(bi, b.exsuccs[bi.leader]) {
				changed = true
			}
		}
	}
	// Per-pc backward sweep: each row starts as the row after it.
	rows := make([]bool, pcs*nLocals)
	for i := range blocks {
		bi := &blocks[i]
		live := bi.liveOut
		for pc := bi.end - 1; pc >= bi.leader; pc-- {
			row := rows[:nLocals:nLocals]
			rows = rows[nLocals:]
			copy(row, live)
			in := &code[pc]
			// oplint:ignore — backward liveness transfer: only local
			// slot kills and uses matter.
			switch in.Op {
			case bc.OpStore:
				row[in.A] = false
			case bc.OpLoad:
				row[in.A] = true
			}
			b.liveAt[pc] = row
			live = row
		}
	}
}

// newChain builds the dispatch chain for a trap at trapPC in the block
// `from`: the head materializes the in-flight exception object, each typed
// table entry becomes a dynamic InstanceOf test (intrinsic traps carry a
// null exception object, so typed entries never match them), a catch-all
// entry ends the chain with a Goto, and an exhausted table ends it with an
// Unwind that re-raises to the caller. Handler predecessors are wired here;
// the trapping block's own successor edge to the head is set when the block
// is translated.
func (b *builder) newChain(trapPC int, from *ir.Block, entries []*bc.ExceptionHandler) *dispatchChain {
	head := b.g.NewBlock()
	head.Preds = []*ir.Block{from}
	excObj := b.g.NewNode(ir.OpExceptionObject, bc.KindRef)
	excObj.BCI = trapPC
	b.g.Append(head, excObj)
	ch := &dispatchChain{head: head, blocks: []*ir.Block{head}, excObj: excObj}
	cur := head
	for _, h := range entries {
		hb := b.blockAt[h.Handler]
		if h.Class == nil {
			gt := b.g.NewNode(ir.OpGoto, bc.KindVoid)
			gt.BCI = trapPC
			gt.Block = cur
			cur.Term = gt
			cur.Succs = []*ir.Block{hb}
			hb.Preds = append(hb.Preds, cur)
			return ch
		}
		iof := b.g.NewNode(ir.OpInstanceOf, bc.KindInt, excObj)
		iof.Class = h.Class
		iof.BCI = trapPC
		b.g.Append(cur, iof)
		next := b.g.NewBlock()
		next.Preds = []*ir.Block{cur}
		t := b.g.NewNode(ir.OpIf, bc.KindVoid, iof)
		t.BCI = trapPC
		t.Block = cur
		cur.Term = t
		cur.Succs = []*ir.Block{hb, next}
		hb.Preds = append(hb.Preds, cur)
		ch.blocks = append(ch.blocks, next)
		cur = next
	}
	uw := b.g.NewNode(ir.OpUnwind, bc.KindVoid)
	uw.BCI = trapPC
	uw.Block = cur
	cur.Term = uw
	return ch
}

// entryState computes the abstract state at a block's entry, inserting
// phis for merges.
func (b *builder) entryState(leader int, blk *ir.Block) (*absState, error) {
	nLocals := b.m.NumLocals()
	switch {
	case len(blk.Preds) == 0:
		// Method entry: parameters fill the argument slots, other locals
		// start undefined (the interpreter zero-fills them; loads of
		// undefined slots synthesize the zero constant lazily). When pc 0
		// is a branch target, the entry block is a preamble whose exit was
		// recorded in build(), so this case never sees a loop header.
		st := &absState{locals: make([]*ir.Node, nLocals)}
		copy(st.locals, b.params)
		return st, nil
	case len(blk.Preds) == 1:
		ex := b.exit[blk.Preds[0].ID]
		if ex == nil {
			return nil, fmt.Errorf("build: %s: predecessor of block at pc %d not translated", b.m.QualifiedName(), leader)
		}
		return ex.clone(), nil
	}

	// Merge: one phi per live-in local slot and per operand stack slot.
	// Inputs are filled in fillPhis once all predecessor exits exist; at
	// least one predecessor (a forward edge) is already translated and
	// provides the stack depth and kinds.
	var model *absState
	for _, p := range blk.Preds {
		if ex := b.exit[p.ID]; ex != nil {
			model = ex
			break
		}
	}
	if model == nil {
		return nil, fmt.Errorf("build: %s: merge at pc %d has no translated predecessor", b.m.QualifiedName(), leader)
	}
	live := b.liveAt[leader]
	st := &absState{locals: make([]*ir.Node, nLocals)}
	for s := 0; s < nLocals; s++ {
		if !live[s] {
			continue
		}
		phi := b.g.AddPhi(blk, b.m.LocalKinds[s])
		phi.BCI = leader
		b.pendingPhis = append(b.pendingPhis, pendingPhi{block: blk, phi: phi, slot: s})
		st.locals[s] = phi
	}
	for d, v := range model.stack {
		phi := b.g.AddPhi(blk, v.Kind)
		phi.BCI = leader
		b.pendingPhis = append(b.pendingPhis, pendingPhi{block: blk, phi: phi, slot: ^d})
		st.push(phi)
	}
	return st, nil
}

// fillPhis completes merge phis with one input per predecessor, in
// predecessor order.
func (b *builder) fillPhis() error {
	for _, pp := range b.pendingPhis {
		blk, phi := pp.block, pp.phi
		phi.Inputs = make([]*ir.Node, len(blk.Preds))
		for i, pred := range blk.Preds {
			ex := b.exit[pred.ID]
			if ex == nil {
				return fmt.Errorf("build: %s: phi v%d input from untranslated %s", b.m.QualifiedName(), phi.ID, pred)
			}
			var v *ir.Node
			if pp.slot >= 0 {
				v = ex.locals[pp.slot]
				if v == nil {
					// Live at the merge but undefined along this
					// path: the interpreter zero-initializes
					// locals, so complete the phi with the kind's
					// default constant, placed in the predecessor.
					v = b.zeroIn(pred, phi.Kind)
				}
			} else {
				d := ^pp.slot
				if d >= len(ex.stack) {
					return fmt.Errorf("build: %s: inconsistent stack depth at merge %s", b.m.QualifiedName(), blk)
				}
				v = ex.stack[d]
			}
			phi.Inputs[i] = v
		}
		// Multiplicity: a conditional branch whose target equals its
		// fallthrough produces the same predecessor twice; both edges
		// carry the same exit state, which the loop above already
		// handles per-slot.
	}
	return nil
}

// zeroIn returns a default-value constant for kind placed at the end of
// pred (before its terminator), creating it on first use.
func (b *builder) zeroIn(pred *ir.Block, kind bc.Kind) *ir.Node {
	key := zeroKey{pred, kind}
	if n, ok := b.zeroOf[key]; ok {
		return n
	}
	var n *ir.Node
	if kind == bc.KindRef {
		n = b.g.NewNode(ir.OpConstNull, bc.KindRef)
	} else {
		n = b.g.NewNode(ir.OpConst, bc.KindInt)
	}
	// An OnException terminator must keep guarding the block's last node;
	// slot the constant in front of the guard.
	if pred.Term != nil && pred.Term.Op == ir.OpOnException {
		b.g.InsertBefore(pred, n, pred.Term.Inputs[0])
	} else {
		b.g.Append(pred, n)
	}
	b.zeroOf[key] = n
	return n
}

// frameState captures the bytecode-level state before executing pc: the
// full operand stack (the instruction at pc is re-executed after
// deoptimization, so its operands must be present) and the local slots
// pruned to those live at pc. The locals and the stack share one
// allocation.
func (b *builder) frameState(pc int, st *absState) *ir.FrameState {
	nl := len(st.locals)
	vals := make([]*ir.Node, nl+len(st.stack))
	fs := &ir.FrameState{Method: b.m, BCI: pc, Locals: vals[:nl:nl]}
	if len(st.stack) > 0 {
		fs.Stack = vals[nl:]
		copy(fs.Stack, st.stack)
	}
	live := b.liveAt[pc]
	for i, v := range st.locals {
		if live != nil && live[i] {
			fs.Locals[i] = v
		}
	}
	return fs
}

// translateBlock translates the instructions of the block led by leader.
func (b *builder) translateBlock(leader int) error {
	blk := b.blockAt[leader]
	st, err := b.entryState(leader, blk)
	if err != nil {
		return err
	}
	code := b.m.Code
	end := b.blockEnd(leader)

	// newNode creates, places and tags a node for the instruction at pc.
	newNode := func(pc int, op ir.Op, kind bc.Kind, inputs ...*ir.Node) *ir.Node {
		n := b.g.NewNode(op, kind, inputs...)
		n.BCI = pc
		b.g.Append(blk, n)
		return n
	}
	setTerm := func(pc int, n *ir.Node, succPCs ...int) {
		n.BCI = pc
		n.Block = blk
		blk.Term = n
		blk.Succs = make([]*ir.Block, len(succPCs))
		for i, s := range succPCs {
			blk.Succs[i] = b.blockAt[s]
		}
	}
	loadLocal := func(pc, slot int) *ir.Node {
		if v := st.locals[slot]; v != nil {
			return v
		}
		// Undefined slot: the interpreter sees the kind's zero value.
		var v *ir.Node
		if b.m.LocalKinds[slot] == bc.KindRef {
			v = newNode(pc, ir.OpConstNull, bc.KindRef)
		} else {
			v = newNode(pc, ir.OpConst, bc.KindInt)
		}
		st.locals[slot] = v
		return v
	}

	for pc := leader; pc < end; pc++ {
		in := &code[pc]
		switch in.Op {
		case bc.OpNop:

		case bc.OpConst:
			n := newNode(pc, ir.OpConst, bc.KindInt)
			n.AuxInt = in.A
			st.push(n)
		case bc.OpConstNull:
			st.push(newNode(pc, ir.OpConstNull, bc.KindRef))
		case bc.OpLoad:
			st.push(loadLocal(pc, int(in.A)))
		case bc.OpStore:
			st.locals[in.A] = st.pop()
		case bc.OpPop:
			st.pop()
		case bc.OpDup:
			st.push(st.stack[len(st.stack)-1])
		case bc.OpSwap:
			n := len(st.stack)
			st.stack[n-1], st.stack[n-2] = st.stack[n-2], st.stack[n-1]

		case bc.OpAdd, bc.OpSub, bc.OpMul, bc.OpDiv, bc.OpRem,
			bc.OpAnd, bc.OpOr, bc.OpXor, bc.OpShl, bc.OpShr, bc.OpUShr:
			y := st.pop()
			x := st.pop()
			n := newNode(pc, ir.OpArith, bc.KindInt, x, y)
			n.Aux2 = in.Op
			st.push(n)
		case bc.OpNeg:
			st.push(newNode(pc, ir.OpNeg, bc.KindInt, st.pop()))
		case bc.OpCmp:
			y := st.pop()
			x := st.pop()
			n := newNode(pc, ir.OpCmp, bc.KindInt, x, y)
			n.Cond = in.Cond
			st.push(n)

		case bc.OpGoto:
			setTerm(pc, b.g.NewNode(ir.OpGoto, bc.KindVoid), in.Target())
		case bc.OpIfCmp, bc.OpIf, bc.OpIfRef, bc.OpIfNull:
			fs := b.frameState(pc, st)
			var cond *ir.Node
			// oplint:ignore — the enclosing case limits in.Op to the
			// four conditional branches.
			switch in.Op {
			case bc.OpIfCmp:
				y := st.pop()
				x := st.pop()
				cond = newNode(pc, ir.OpCmp, bc.KindInt, x, y)
				cond.Cond = in.Cond
			case bc.OpIf:
				x := st.pop()
				zero := newNode(pc, ir.OpConst, bc.KindInt)
				cond = newNode(pc, ir.OpCmp, bc.KindInt, x, zero)
				cond.Cond = in.Cond
			case bc.OpIfRef:
				y := st.pop()
				x := st.pop()
				cond = newNode(pc, ir.OpRefEq, bc.KindInt, x, y)
				cond.Cond = in.Cond
			case bc.OpIfNull:
				x := st.pop()
				null := newNode(pc, ir.OpConstNull, bc.KindRef)
				cond = newNode(pc, ir.OpRefEq, bc.KindInt, x, null)
				cond.Cond = in.Cond
			}
			t := b.g.NewNode(ir.OpIf, bc.KindVoid, cond)
			t.FrameState = fs
			setTerm(pc, t, in.Target(), pc+1)

		case bc.OpNew:
			n := newNode(pc, ir.OpNew, bc.KindRef)
			n.Class = in.Class
			// (Method, BCI) is the allocation's stable site identity for
			// escape attribution; the inliner clones both, so the site
			// survives into caller graphs.
			n.Method = b.m
			st.push(n)
		case bc.OpNewArray:
			ln := st.pop()
			n := newNode(pc, ir.OpNewArray, bc.KindRef, ln)
			n.ElemKind = in.Kind
			n.Method = b.m
			st.push(n)
		case bc.OpGetField:
			recv := st.pop()
			n := newNode(pc, ir.OpLoadField, in.Field.Kind, recv)
			n.Field = in.Field
			st.push(n)
		case bc.OpPutField:
			fs := b.frameState(pc, st)
			v := st.pop()
			recv := st.pop()
			n := newNode(pc, ir.OpStoreField, bc.KindVoid, recv, v)
			n.Field = in.Field
			n.FrameState = fs
		case bc.OpGetStatic:
			n := newNode(pc, ir.OpLoadStatic, in.Field.Kind)
			n.Field = in.Field
			st.push(n)
		case bc.OpPutStatic:
			fs := b.frameState(pc, st)
			n := newNode(pc, ir.OpStoreStatic, bc.KindVoid, st.pop())
			n.Field = in.Field
			n.FrameState = fs
		case bc.OpArrayLoad:
			idx := st.pop()
			arr := st.pop()
			n := newNode(pc, ir.OpLoadIndexed, in.Kind, arr, idx)
			n.ElemKind = in.Kind
			st.push(n)
		case bc.OpArrayStore:
			fs := b.frameState(pc, st)
			v := st.pop()
			idx := st.pop()
			arr := st.pop()
			n := newNode(pc, ir.OpStoreIndexed, bc.KindVoid, arr, idx, v)
			n.ElemKind = in.Kind
			n.FrameState = fs
		case bc.OpArrayLen:
			st.push(newNode(pc, ir.OpArrayLength, bc.KindInt, st.pop()))
		case bc.OpInstanceOf:
			n := newNode(pc, ir.OpInstanceOf, bc.KindInt, st.pop())
			n.Class = in.Class
			st.push(n)

		case bc.OpInvokeStatic, bc.OpInvokeDirect, bc.OpInvokeVirtual:
			fs := b.frameState(pc, st)
			callee := in.Method
			nargs := callee.NumArgs()
			args := make([]*ir.Node, nargs)
			for i := nargs - 1; i >= 0; i-- {
				args[i] = st.pop()
			}
			n := newNode(pc, ir.OpInvoke, callee.Ret, args...)
			n.Aux2 = in.Op
			n.Method = callee
			n.FrameState = fs
			if callee.Ret != bc.KindVoid {
				st.push(n)
			}

		case bc.OpMonitorEnter:
			fs := b.frameState(pc, st)
			n := newNode(pc, ir.OpMonitorEnter, bc.KindVoid, st.pop())
			n.FrameState = fs
		case bc.OpMonitorExit:
			fs := b.frameState(pc, st)
			n := newNode(pc, ir.OpMonitorExit, bc.KindVoid, st.pop())
			n.FrameState = fs

		case bc.OpReturn:
			t := b.g.NewNode(ir.OpReturn, bc.KindVoid)
			t.FrameState = b.frameState(pc, st)
			setTerm(pc, t)
		case bc.OpReturnValue:
			fs := b.frameState(pc, st)
			t := b.g.NewNode(ir.OpReturn, bc.KindVoid, st.pop())
			t.FrameState = fs
			setTerm(pc, t)
		case bc.OpThrow:
			fs := b.frameState(pc, st)
			t := b.g.NewNode(ir.OpThrow, bc.KindVoid, st.pop())
			t.FrameState = fs
			setTerm(pc, t)

		case bc.OpPrint:
			fs := b.frameState(pc, st)
			n := newNode(pc, ir.OpPrint, bc.KindVoid, st.pop())
			n.FrameState = fs
		case bc.OpRand:
			fs := b.frameState(pc, st)
			n := newNode(pc, ir.OpRand, bc.KindInt)
			n.AuxInt = in.A
			n.FrameState = fs
			st.push(n)

		default:
			return fmt.Errorf("build: %s: pc %d: unsupported opcode %s", b.m.QualifiedName(), pc, in.Op)
		}
	}

	// A block ending in a covered trapping instruction gets its
	// exceptional edge: an OnException terminator guarding the trapping
	// node (a covered Throw keeps its Throw terminator and takes the
	// dispatch chain as its only successor). Every chain block shares one
	// exit state — the locals at the trap point with the exception object
	// as the sole stack slot — which is what the handler block's merge
	// phis consume.
	if ch := b.chains[leader]; ch != nil {
		if blk.Term != nil {
			// Covered OpThrow: ir.Verify accepts a single-successor Throw.
			blk.Succs = []*ir.Block{ch.head}
		} else {
			guard := blk.Nodes[len(blk.Nodes)-1]
			t := b.g.NewNode(ir.OpOnException, bc.KindVoid, guard)
			t.BCI = end - 1
			t.Block = blk
			blk.Term = t
			blk.Succs = []*ir.Block{b.blockAt[b.succs[leader][0]], ch.head}
		}
		exitSt := &absState{
			locals: append([]*ir.Node(nil), st.locals...),
			stack:  []*ir.Node{ch.excObj},
		}
		for _, cb := range ch.blocks {
			b.exit[cb.ID] = exitSt
		}
	}

	// A block that neither branches nor returns falls through into the
	// next leader.
	if blk.Term == nil {
		setTerm(end-1, b.g.NewNode(ir.OpGoto, bc.KindVoid), b.succs[leader][0])
	}
	b.exit[blk.ID] = st
	return nil
}
