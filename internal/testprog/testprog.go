// Package testprog provides a corpus of bytecode programs used across the
// compiler's test suites for differential testing: every compiler
// configuration must produce bit-identical results, output and final
// statics to the pure interpreter on every corpus program. The corpus
// deliberately covers the paper's patterns: allocations that never escape,
// allocations that escape on one branch only (partial escape), allocations
// in loops, synchronized regions on non-escaping objects, and object
// graphs with inter-object references.
package testprog

import (
	"fmt"

	"pea/internal/bc"
)

// Program is one corpus entry.
type Program struct {
	Name string
	// Prog is the linked program. Entry is a static method that takes
	// int parameters only.
	Prog  *bc.Program
	Entry *bc.Method
	// ArgSets are interesting argument vectors for the entry method.
	ArgSets [][]int64
}

// mustFinish links the program or panics (corpus construction is static).
func mustFinish(a *bc.Assembler, name string) *bc.Program {
	p, err := a.Finish("")
	if err != nil {
		panic(fmt.Sprintf("testprog %s: %v", name, err))
	}
	return p
}

func entry(p *bc.Program, cls, meth string) *bc.Method {
	m := p.ClassByName(cls).MethodByName(meth)
	if m == nil {
		panic("testprog: missing " + cls + "." + meth)
	}
	return m
}

// Corpus returns the full test corpus. Each call builds fresh programs so
// tests may mutate them freely.
func Corpus() []Program {
	return []Program{
		straightLine(),
		diamond(),
		loopSum(),
		nestedLoops(),
		loopTwoBackEdges(),
		phiSwap(),
		phiRotate3(),
		nonEscaping(),
		partialEscape(),
		escapeBothBranches(),
		allocInLoop(),
		escapeFromLoop(),
		syncNonEscaping(),
		syncPartialEscape(),
		cacheKey(),
		linkedList(),
		objectGraph(),
		virtualCalls(),
		recursion(),
		arrays(),
		arrayEscape(),
		refPhi(),
		randomBranches(),
		deepExpression(),
		instanceOfChain(),
		aliasedStores(),
		boxedCounter(),
		refArray(),
		nestedSync(),
		selfReference(),
		partialViaCallee(),
		callBulkNoEscape(),
		callChainForwarding(),
		callRecursiveRef(),
		callGuardedPred(),
		throwInLoop(),
		catchRethrow(),
		catchAllIntrinsic(),
		catchPartialEscape(),
		uncaughtTrap(),
		latchReadsPhi(),
		entryInputAfterLoop(),
		foldSharedPhi(),
		trapInLoopHandler(),
		exitReadsOldPhi(),
	}
}

// padBulk emits a callee that is too big to inline (past the inliner's
// 80-instruction code bound) and never observes its ref parameter: >90
// instructions of pure arithmetic on the int parameter. The shape
// inter-procedural summaries exist for — without them every caller must
// materialize the argument; with them it stays virtual across the call.
func padBulk(c *bc.ClassAsm, name string) *bc.MethodAsm {
	bulk := c.Method(name, []bc.Kind{bc.KindRef, bc.KindInt}, bc.KindInt, true)
	bulk.Load(1)
	for i := 0; i < 45; i++ {
		bulk.Const(int64(i%7) + 1).Add()
	}
	bulk.ReturnValue()
	return bulk
}

// callBulkNoEscape: the caller's Box flows into a non-inlinable callee that
// never touches it, then is read back. Scalar replacement across the call
// is only possible with callee escape summaries.
func callBulkNoEscape() Program {
	a := bc.NewAssembler()
	box, v, _, _ := boxClass(a)
	c := a.Class("P", "")
	bulk := padBulk(c, "bulk")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	l := m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(l)
	m.Load(l).Load(0).PutField(v)
	m.Load(l).Load(0).InvokeStatic(bulk.Ref())
	m.Load(l).GetField(v).Add().ReturnValue()
	p := mustFinish(a, "callBulkNoEscape")
	return Program{"callBulkNoEscape", p, entry(p, "P", "run"),
		[][]int64{{0}, {7}, {-3}, {1000}}}
}

// callChainForwarding: the ref argument is forwarded through two small
// wrappers into the big callee; that it never escapes is only derivable
// transitively (the summary fixpoint runs bottom-up over the call graph).
func callChainForwarding() Program {
	a := bc.NewAssembler()
	box, v, _, _ := boxClass(a)
	c := a.Class("P", "")
	bulk := padBulk(c, "bulk")
	inner := c.Method("inner", []bc.Kind{bc.KindRef, bc.KindInt}, bc.KindInt, true)
	inner.Load(0).Load(1).InvokeStatic(bulk.Ref()).Const(1).Add().ReturnValue()
	outer := c.Method("outer", []bc.Kind{bc.KindRef, bc.KindInt}, bc.KindInt, true)
	outer.Load(0).Load(1).InvokeStatic(inner.Ref()).Const(2).Add().ReturnValue()
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	l := m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(l)
	m.Load(l).Load(0).PutField(v)
	m.Load(l).Load(0).InvokeStatic(outer.Ref())
	m.Load(l).GetField(v).Add().ReturnValue()
	p := mustFinish(a, "callChainForwarding")
	return Program{"callChainForwarding", p, entry(p, "P", "run"),
		[][]int64{{0}, {5}, {-11}}}
}

// callRecursiveRef: a Box threaded through a recursive callee that reads
// its field. Recursion puts the callee in a call-graph cycle, which the
// summary analysis must treat conservatively; the differential harnesses
// check the conservatism never changes semantics.
func callRecursiveRef() Program {
	a := bc.NewAssembler()
	box, v, _, _ := boxClass(a)
	c := a.Class("P", "")
	rec := c.Method("rec", []bc.Kind{bc.KindRef, bc.KindInt}, bc.KindInt, true)
	rec.Load(1).Const(0).IfCmp(bc.CondGT, "more")
	rec.Load(0).GetField(v).ReturnValue()
	rec.Label("more").Load(0).Load(1).Const(1).Sub().InvokeStatic(rec.Ref())
	rec.Const(1).Add().ReturnValue()
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	l := m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(l)
	m.Load(l).Const(40).PutField(v)
	m.Load(l).Load(0).InvokeStatic(rec.Ref()).ReturnValue()
	p := mustFinish(a, "callRecursiveRef")
	return Program{"callRecursiveRef", p, entry(p, "P", "run"),
		[][]int64{{0}, {1}, {6}}}
}

// callGuardedPred: the callee escapes its ref argument only under an int
// flag, and is too big to inline; callers passing a constant 0 flag keep
// the argument virtual only through the summary's predicate refinement
// (the SkipFlow-style conditional-escape fact).
func callGuardedPred() Program {
	a := bc.NewAssembler()
	box, v, _, sink := boxClass(a)
	c := a.Class("P", "")
	g := c.Method("guarded", []bc.Kind{bc.KindRef, bc.KindInt}, bc.KindInt, true)
	g.Load(1).If(bc.CondEQ, "skip")
	g.Load(0).PutStatic(sink)
	g.Label("skip").Load(1)
	for i := 0; i < 42; i++ {
		g.Const(int64(i%5) + 1).Add()
	}
	g.ReturnValue()
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	l := m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(l)
	m.Load(l).Load(0).PutField(v)
	m.Load(l).Const(0).InvokeStatic(g.Ref()) // dead guard: never escapes
	m.Load(l).GetField(v).Add().ReturnValue()
	p := mustFinish(a, "callGuardedPred")
	return Program{"callGuardedPred", p, entry(p, "P", "run"),
		[][]int64{{0}, {3}, {77}}}
}

// straightLine: pure arithmetic, no control flow.
func straightLine() Program {
	a := bc.NewAssembler()
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt, bc.KindInt}, bc.KindInt, true)
	m.Load(0).Load(1).Add().Load(0).Mul().Load(1).Sub().Const(7).Add().ReturnValue()
	p := mustFinish(a, "straightLine")
	return Program{"straightLine", p, entry(p, "P", "run"),
		[][]int64{{0, 0}, {3, 4}, {-5, 11}, {1 << 30, 77}}}
}

// diamond: one if/else merging with a phi.
func diamond() Program {
	a := bc.NewAssembler()
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	r := m.NewLocal(bc.KindInt)
	m.Load(0).Const(10).IfCmp(bc.CondLT, "small")
	m.Load(0).Const(2).Mul().Store(r).Goto("join")
	m.Label("small").Load(0).Const(100).Add().Store(r)
	m.Label("join").Load(r).Const(1).Add().ReturnValue()
	p := mustFinish(a, "diamond")
	return Program{"diamond", p, entry(p, "P", "run"),
		[][]int64{{0}, {9}, {10}, {11}, {-3}, {1000}}}
}

// loopSum: single loop accumulating a sum.
func loopSum() Program {
	a := bc.NewAssembler()
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	s := m.NewLocal(bc.KindInt)
	m.Const(0).Store(i).Const(0).Store(s)
	m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	m.Load(s).Load(i).Add().Store(s)
	m.Load(i).Const(1).Add().Store(i)
	m.Goto("head")
	m.Label("done").Load(s).ReturnValue()
	p := mustFinish(a, "loopSum")
	return Program{"loopSum", p, entry(p, "P", "run"),
		[][]int64{{0}, {1}, {10}, {100}}}
}

// nestedLoops: two nested loops (multiplication by repeated addition).
func nestedLoops() Program {
	a := bc.NewAssembler()
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt, bc.KindInt}, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	j := m.NewLocal(bc.KindInt)
	s := m.NewLocal(bc.KindInt)
	m.Const(0).Store(i).Const(0).Store(s)
	m.Label("outer").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	m.Const(0).Store(j)
	m.Label("inner").Load(j).Load(1).IfCmp(bc.CondGE, "iend")
	m.Load(s).Const(1).Add().Store(s)
	m.Load(j).Const(1).Add().Store(j)
	m.Goto("inner")
	m.Label("iend").Load(i).Const(1).Add().Store(i)
	m.Goto("outer")
	m.Label("done").Load(s).ReturnValue()
	p := mustFinish(a, "nestedLoops")
	return Program{"nestedLoops", p, entry(p, "P", "run"),
		[][]int64{{0, 5}, {5, 0}, {3, 4}, {7, 7}}}
}

// loopTwoBackEdges reproduces the paper's Figure 7 shape: a loop with one
// exit and two back edges (a continue-like branch inside the body).
func loopTwoBackEdges() Program {
	a := bc.NewAssembler()
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	s := m.NewLocal(bc.KindInt)
	m.Const(0).Store(i).Const(0).Store(s)
	m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	m.Load(i).Const(1).Add().Store(i)
	// if (i % 3 == 0) continue;  (first back edge)
	m.Load(i).Const(3).Rem().If(bc.CondEQ, "head")
	m.Load(s).Load(i).Add().Store(s)
	// second back edge
	m.Goto("head")
	m.Label("done").Load(s).ReturnValue()
	p := mustFinish(a, "loopTwoBackEdges")
	return Program{"loopTwoBackEdges", p, entry(p, "P", "run"),
		[][]int64{{0}, {1}, {2}, {3}, {10}, {31}}}
}

// phiSwap: `t=a; a=b; b=t` on two ints and on two references in one loop,
// plus a second int pair that is swapped on every third iteration only. Once
// the trivial merge phis are gone the unconditional swaps are loop-header
// phis that read each other on the back edge (a two-cycle per kind), while
// the conditional swap merges a swapped with an unswapped pair (a plain copy
// on one edge, all self-moves on the other). An engine that copies phis one
// after another without ordering them returns x==y here.
func phiSwap() Program {
	a := bc.NewAssembler()
	box, v, _, _ := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	x := m.NewLocal(bc.KindInt)
	y := m.NewLocal(bc.KindInt)
	u := m.NewLocal(bc.KindInt)
	w := m.NewLocal(bc.KindInt)
	t := m.NewLocal(bc.KindInt)
	p := m.NewLocal(bc.KindRef)
	q := m.NewLocal(bc.KindRef)
	r := m.NewLocal(bc.KindRef)
	m.Const(0).Store(i).Const(1).Store(x).Const(2).Store(y).Const(5).Store(u).Const(6).Store(w)
	m.New(box.Ref()).Store(p).Load(p).Const(3).PutField(v)
	m.New(box.Ref()).Store(q).Load(q).Const(4).PutField(v)
	m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	m.Load(x).Store(t).Load(y).Store(x).Load(t).Store(y)
	m.Load(p).Store(r).Load(q).Store(p).Load(r).Store(q)
	m.Load(i).Const(3).Rem().If(bc.CondNE, "next")
	m.Load(u).Store(t).Load(w).Store(u).Load(t).Store(w)
	m.Label("next").Load(u).Load(i).Add().Store(u)
	m.Load(i).Const(1).Add().Store(i)
	m.Goto("head")
	m.Label("done")
	m.Load(x).Const(10).Mul().Load(y).Add()
	m.Const(10).Mul().Load(p).GetField(v).Add()
	m.Const(10).Mul().Load(q).GetField(v).Add()
	m.Const(1000).Mul().Load(u).Const(100).Mul().Add().Load(w).Add()
	m.ReturnValue()
	prog := mustFinish(a, "phiSwap")
	return Program{"phiSwap", prog, entry(prog, "P", "run"),
		[][]int64{{0}, {1}, {2}, {3}, {4}, {9}, {40}}}
}

// phiRotate3: `t=a; a=b; b=c; c=t` on three ints and on three references in
// the same loop — a three-cycle per kind on the back edge, which a
// sequentialized copy must break through a scratch slot exactly once each.
func phiRotate3() Program {
	a := bc.NewAssembler()
	box, v, _, _ := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	ints := []int{m.NewLocal(bc.KindInt), m.NewLocal(bc.KindInt), m.NewLocal(bc.KindInt)}
	ti := m.NewLocal(bc.KindInt)
	refs := []int{m.NewLocal(bc.KindRef), m.NewLocal(bc.KindRef), m.NewLocal(bc.KindRef)}
	tr := m.NewLocal(bc.KindRef)
	m.Const(0).Store(i)
	for k := range ints {
		m.Const(int64(k + 1)).Store(ints[k])
		m.New(box.Ref()).Store(refs[k]).Load(refs[k]).Const(int64(k + 4)).PutField(v)
	}
	m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	for _, l := range []struct {
		tmp  int
		vars []int
	}{{ti, ints}, {tr, refs}} {
		m.Load(l.vars[0]).Store(l.tmp)
		m.Load(l.vars[1]).Store(l.vars[0])
		m.Load(l.vars[2]).Store(l.vars[1])
		m.Load(l.tmp).Store(l.vars[2])
	}
	m.Load(i).Const(1).Add().Store(i)
	m.Goto("head")
	m.Label("done").Const(0)
	for k := range ints {
		m.Const(10).Mul().Load(ints[k]).Add()
	}
	for k := range refs {
		m.Const(10).Mul().Load(refs[k]).GetField(v).Add()
	}
	m.ReturnValue()
	prog := mustFinish(a, "phiRotate3")
	return Program{"phiRotate3", prog, entry(prog, "P", "run"),
		[][]int64{{0}, {1}, {2}, {3}, {4}, {10}, {41}}}
}

// boxClass declares `class Box { int v; Box next; }` plus a static sink.
func boxClass(a *bc.Assembler) (*bc.ClassAsm, *bc.Field, *bc.Field, *bc.Field) {
	box := a.Class("Box", "")
	v := box.Field("v", bc.KindInt)
	next := box.Field("next", bc.KindRef)
	sink := box.Static("sink", bc.KindRef)
	return box, v, next, sink
}

// nonEscaping: classic full scalar replacement candidate — allocate, write,
// read, discard.
func nonEscaping() Program {
	a := bc.NewAssembler()
	box, v, _, _ := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	l := m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(l)
	m.Load(l).Load(0).PutField(v)
	m.Load(l).GetField(v).Const(3).Mul().ReturnValue()
	p := mustFinish(a, "nonEscaping")
	return Program{"nonEscaping", p, entry(p, "P", "run"),
		[][]int64{{0}, {14}, {-9}}}
}

// partialEscape: the paper's core pattern (Listing 4) — the object escapes
// into a static field on one branch only.
func partialEscape() Program {
	a := bc.NewAssembler()
	box, v, _, sink := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	l := m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(l)
	m.Load(l).Load(0).PutField(v)
	m.Load(0).Const(100).IfCmp(bc.CondLT, "noescape")
	m.Load(l).PutStatic(sink)
	m.Load(l).GetField(v).Const(1).Add().ReturnValue()
	m.Label("noescape").Load(l).GetField(v).Const(2).Mul().ReturnValue()
	p := mustFinish(a, "partialEscape")
	return Program{"partialEscape", p, entry(p, "P", "run"),
		[][]int64{{0}, {99}, {100}, {5000}}}
}

// escapeBothBranches: the object escapes on both paths (PEA must keep it).
func escapeBothBranches() Program {
	a := bc.NewAssembler()
	box, v, _, sink := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	l := m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(l)
	m.Load(l).Load(0).PutField(v)
	m.Load(0).If(bc.CondNE, "other")
	m.Load(l).PutStatic(sink)
	m.Goto("join")
	m.Label("other").Load(l).PutStatic(sink)
	m.Label("join").GetStatic(sink).GetField(v).ReturnValue()
	p := mustFinish(a, "escapeBothBranches")
	return Program{"escapeBothBranches", p, entry(p, "P", "run"),
		[][]int64{{0}, {1}, {-7}}}
}

// allocInLoop: a fresh non-escaping object per iteration.
func allocInLoop() Program {
	a := bc.NewAssembler()
	box, v, _, _ := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	s := m.NewLocal(bc.KindInt)
	l := m.NewLocal(bc.KindRef)
	m.Const(0).Store(i).Const(0).Store(s)
	m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	m.New(box.Ref()).Store(l)
	m.Load(l).Load(i).PutField(v)
	m.Load(s).Load(l).GetField(v).Add().Store(s)
	m.Load(i).Const(1).Add().Store(i)
	m.Goto("head")
	m.Label("done").Load(s).ReturnValue()
	p := mustFinish(a, "allocInLoop")
	return Program{"allocInLoop", p, entry(p, "P", "run"),
		[][]int64{{0}, {1}, {25}}}
}

// escapeFromLoop: the object allocated before the loop escapes inside the
// loop on a rare iteration.
func escapeFromLoop() Program {
	a := bc.NewAssembler()
	box, v, _, sink := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	l := m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(l)
	m.Load(l).Const(5).PutField(v)
	m.Const(0).Store(i)
	m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	m.Load(i).Const(17).IfCmp(bc.CondNE, "skip")
	m.Load(l).PutStatic(sink)
	m.Label("skip").Load(i).Const(1).Add().Store(i)
	m.Goto("head")
	m.Label("done").Load(l).GetField(v).Load(0).Add().ReturnValue()
	p := mustFinish(a, "escapeFromLoop")
	return Program{"escapeFromLoop", p, entry(p, "P", "run"),
		[][]int64{{0}, {10}, {17}, {18}, {40}}}
}

// syncNonEscaping: synchronized on a non-escaping object (lock elision).
func syncNonEscaping() Program {
	a := bc.NewAssembler()
	box, v, _, _ := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	l := m.NewLocal(bc.KindRef)
	r := m.NewLocal(bc.KindInt)
	m.New(box.Ref()).Store(l)
	m.Load(l).MonitorEnter()
	m.Load(l).Load(0).PutField(v)
	m.Load(l).GetField(v).Const(2).Mul().Store(r)
	m.Load(l).MonitorExit()
	m.Load(r).ReturnValue()
	p := mustFinish(a, "syncNonEscaping")
	return Program{"syncNonEscaping", p, entry(p, "P", "run"),
		[][]int64{{0}, {21}, {-4}}}
}

// syncPartialEscape: locked object escapes on one branch after the
// synchronized region.
func syncPartialEscape() Program {
	a := bc.NewAssembler()
	box, v, _, sink := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	l := m.NewLocal(bc.KindRef)
	t := m.NewLocal(bc.KindInt)
	m.New(box.Ref()).Store(l)
	m.Load(l).MonitorEnter()
	m.Load(l).Load(0).PutField(v)
	m.Load(l).GetField(v).Store(t)
	m.Load(l).MonitorExit()
	m.Load(t).Const(0).IfCmp(bc.CondGE, "pos")
	m.Load(l).PutStatic(sink)
	m.Load(t).Neg().ReturnValue()
	m.Label("pos").Load(t).ReturnValue()
	p := mustFinish(a, "syncPartialEscape")
	return Program{"syncPartialEscape", p, entry(p, "P", "run"),
		[][]int64{{5}, {0}, {-5}}}
}

// cacheKey is the paper's Listing 1/4 example, hand-inlined as in
// Listing 5: allocate a Key, compare against a static cache under the
// key's monitor, escape the key into the cache on a miss.
func cacheKey() Program {
	a := bc.NewAssembler()
	key := a.Class("Key", "")
	idx := key.Field("idx", bc.KindInt)
	cache := a.Class("Cache", "")
	ck := cache.Static("cacheKey", bc.KindRef)
	cv := cache.Static("cacheValue", bc.KindInt)

	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	k := m.NewLocal(bc.KindRef)
	tmp1 := m.NewLocal(bc.KindRef)
	tmp2 := m.NewLocal(bc.KindInt)
	// Key key = new Key(); key.idx = x;
	m.New(key.Ref()).Store(k)
	m.Load(k).Load(0).PutField(idx)
	// Key tmp1 = cacheKey;
	m.GetStatic(ck).Store(tmp1)
	// synchronized (key) { tmp2 = tmp1 != null && key.idx == tmp1.idx }
	m.Load(k).MonitorEnter()
	m.Load(tmp1).IfNull(bc.CondEQ, "nomatch")
	m.Load(k).GetField(idx).Load(tmp1).GetField(idx).IfCmp(bc.CondNE, "nomatch")
	m.Const(1).Store(tmp2).Goto("sync_end")
	m.Label("nomatch").Const(0).Store(tmp2)
	m.Label("sync_end").Load(k).MonitorExit()
	// if (tmp2) return cacheValue;
	m.Load(tmp2).If(bc.CondEQ, "miss")
	m.GetStatic(cv).ReturnValue()
	// else { cacheKey = key; cacheValue = x*31; return cacheValue; }
	m.Label("miss").Load(k).PutStatic(ck)
	m.Load(0).Const(31).Mul().PutStatic(cv)
	m.GetStatic(cv).ReturnValue()

	drv := c.Method("driver", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	i := drv.NewLocal(bc.KindInt)
	s := drv.NewLocal(bc.KindInt)
	drv.Const(0).Store(i).Const(0).Store(s)
	drv.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	drv.Load(s).Load(i).Const(4).Div().InvokeStatic(m.Ref()).Add().Store(s)
	drv.Load(i).Const(1).Add().Store(i)
	drv.Goto("head")
	drv.Label("done").Load(s).ReturnValue()

	p := mustFinish(a, "cacheKey")
	return Program{"cacheKey", p, entry(p, "P", "driver"),
		[][]int64{{0}, {1}, {2}, {16}, {50}}}
}

// linkedList: build a list of n nodes (all escape into each other but the
// head is dropped), then sum it.
func linkedList() Program {
	a := bc.NewAssembler()
	box, v, next, _ := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	head := m.NewLocal(bc.KindRef)
	n := m.NewLocal(bc.KindRef)
	i := m.NewLocal(bc.KindInt)
	s := m.NewLocal(bc.KindInt)
	m.ConstNull().Store(head)
	m.Const(0).Store(i)
	m.Label("build").Load(i).Load(0).IfCmp(bc.CondGE, "sum")
	m.New(box.Ref()).Store(n)
	m.Load(n).Load(i).PutField(v)
	m.Load(n).Load(head).PutField(next)
	m.Load(n).Store(head)
	m.Load(i).Const(1).Add().Store(i)
	m.Goto("build")
	m.Label("sum").Const(0).Store(s)
	m.Label("walk").Load(head).IfNull(bc.CondEQ, "done")
	m.Load(s).Load(head).GetField(v).Add().Store(s)
	m.Load(head).GetField(next).Store(head)
	m.Goto("walk")
	m.Label("done").Load(s).ReturnValue()
	p := mustFinish(a, "linkedList")
	return Program{"linkedList", p, entry(p, "P", "run"),
		[][]int64{{0}, {1}, {12}}}
}

// objectGraph: one virtual object stored into a field of another virtual
// object (paper Figure 4e/4f).
func objectGraph() Program {
	a := bc.NewAssembler()
	box, v, next, sink := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	outer := m.NewLocal(bc.KindRef)
	inner := m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(inner)
	m.Load(inner).Load(0).PutField(v)
	m.New(box.Ref()).Store(outer)
	m.Load(outer).Load(inner).PutField(next)
	m.Load(outer).Const(7).PutField(v)
	m.Load(0).Const(0).IfCmp(bc.CondLT, "escape")
	// read through the graph: outer.next.v + outer.v
	m.Load(outer).GetField(next).GetField(v).Load(outer).GetField(v).Add().ReturnValue()
	m.Label("escape").Load(outer).PutStatic(sink)
	m.GetStatic(sink).GetField(next).GetField(v).ReturnValue()
	p := mustFinish(a, "objectGraph")
	return Program{"objectGraph", p, entry(p, "P", "run"),
		[][]int64{{3}, {0}, {-3}}}
}

// virtualCalls: dynamic dispatch over a small class hierarchy.
func virtualCalls() Program {
	a := bc.NewAssembler()
	base := a.Class("Base", "")
	scale := base.Field("scale", bc.KindInt)
	bget := base.Method("get", []bc.Kind{bc.KindInt}, bc.KindInt, false)
	bget.Load(0).GetField(scale).Load(1).Mul().ReturnValue()
	sub := a.Class("Sub", "Base")
	sget := sub.Method("get", []bc.Kind{bc.KindInt}, bc.KindInt, false)
	sget.Load(0).GetField(scale).Load(1).Add().ReturnValue()

	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt, bc.KindInt}, bc.KindInt, true)
	o := m.NewLocal(bc.KindRef)
	m.Load(0).If(bc.CondNE, "mksub")
	m.New(base.Ref()).Store(o).Goto("go")
	m.Label("mksub").New(sub.Ref()).Store(o)
	m.Label("go").Load(o).Const(10).PutField(scale)
	m.Load(o).Load(1).InvokeVirtual(bget.Ref()).ReturnValue()
	p := mustFinish(a, "virtualCalls")
	return Program{"virtualCalls", p, entry(p, "P", "run"),
		[][]int64{{0, 5}, {1, 5}, {0, -2}, {1, -2}}}
}

// recursion: naive fibonacci.
func recursion() Program {
	a := bc.NewAssembler()
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	m.Load(0).Const(2).IfCmp(bc.CondLT, "base")
	m.Load(0).Const(1).Sub().InvokeStatic(m.Ref())
	m.Load(0).Const(2).Sub().InvokeStatic(m.Ref())
	m.Add().ReturnValue()
	m.Label("base").Load(0).ReturnValue()
	p := mustFinish(a, "recursion")
	return Program{"recursion", p, entry(p, "P", "run"),
		[][]int64{{0}, {1}, {2}, {10}}}
}

// arrays: fill and fold a heap array.
func arrays() Program {
	a := bc.NewAssembler()
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	arr := m.NewLocal(bc.KindRef)
	i := m.NewLocal(bc.KindInt)
	s := m.NewLocal(bc.KindInt)
	m.Load(0).NewArray(bc.KindInt).Store(arr)
	m.Const(0).Store(i)
	m.Label("fill").Load(i).Load(arr).ArrayLen().IfCmp(bc.CondGE, "fold")
	m.Load(arr).Load(i).Load(i).Load(i).Mul().ArrayStore(bc.KindInt)
	m.Load(i).Const(1).Add().Store(i)
	m.Goto("fill")
	m.Label("fold").Const(0).Store(i).Const(0).Store(s)
	m.Label("head").Load(i).Load(arr).ArrayLen().IfCmp(bc.CondGE, "done")
	m.Load(s).Load(arr).Load(i).ArrayLoad(bc.KindInt).Add().Store(s)
	m.Load(i).Const(1).Add().Store(i)
	m.Goto("head")
	m.Label("done").Load(s).ReturnValue()
	p := mustFinish(a, "arrays")
	return Program{"arrays", p, entry(p, "P", "run"),
		[][]int64{{0}, {1}, {8}}}
}

// arrayEscape: a small constant-length array escapes on one branch.
func arrayEscape() Program {
	a := bc.NewAssembler()
	c := a.Class("P", "")
	arrSink := c.Static("arr", bc.KindRef)
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	arr := m.NewLocal(bc.KindRef)
	m.Const(3).NewArray(bc.KindInt).Store(arr)
	m.Load(arr).Const(0).Load(0).ArrayStore(bc.KindInt)
	m.Load(arr).Const(1).Load(0).Const(2).Mul().ArrayStore(bc.KindInt)
	m.Load(0).Const(50).IfCmp(bc.CondLT, "local")
	m.Load(arr).PutStatic(arrSink)
	m.GetStatic(arrSink).Const(1).ArrayLoad(bc.KindInt).ReturnValue()
	m.Label("local").Load(arr).Const(0).ArrayLoad(bc.KindInt).Load(arr).Const(1).ArrayLoad(bc.KindInt).Add().ReturnValue()
	p := mustFinish(a, "arrayEscape")
	return Program{"arrayEscape", p, entry(p, "P", "run"),
		[][]int64{{1}, {49}, {50}, {120}}}
}

// refPhi: a reference phi of two allocations, read after the merge
// (paper Figure 6c pattern).
func refPhi() Program {
	a := bc.NewAssembler()
	box, v, _, _ := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	o := m.NewLocal(bc.KindRef)
	m.Load(0).If(bc.CondNE, "b")
	m.New(box.Ref()).Store(o)
	m.Load(o).Const(10).PutField(v)
	m.Goto("join")
	m.Label("b").New(box.Ref()).Store(o)
	m.Load(o).Const(20).PutField(v)
	m.Label("join").Load(o).GetField(v).Load(0).Add().ReturnValue()
	p := mustFinish(a, "refPhi")
	return Program{"refPhi", p, entry(p, "P", "run"),
		[][]int64{{0}, {1}, {5}}}
}

// randomBranches: PRNG-driven control flow with allocations; exercises the
// deterministic Rand intrinsic.
func randomBranches() Program {
	a := bc.NewAssembler()
	box, v, _, sink := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	s := m.NewLocal(bc.KindInt)
	o := m.NewLocal(bc.KindRef)
	m.Const(0).Store(i).Const(0).Store(s)
	m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	m.New(box.Ref()).Store(o)
	m.Load(o).Load(i).PutField(v)
	m.Rand(10).Const(8).IfCmp(bc.CondLT, "keep")
	m.Load(o).PutStatic(sink)
	m.Label("keep").Load(s).Load(o).GetField(v).Add().Store(s)
	m.Load(i).Const(1).Add().Store(i)
	m.Goto("head")
	m.Label("done").Load(s).ReturnValue()
	p := mustFinish(a, "randomBranches")
	return Program{"randomBranches", p, entry(p, "P", "run"),
		[][]int64{{0}, {5}, {60}}}
}

// deepExpression: a long pure expression chain (GVN/canonicalization fodder).
func deepExpression() Program {
	a := bc.NewAssembler()
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	m.Load(0).Const(0).Add() // x+0
	m.Const(1).Mul()         // *1
	m.Load(0).Load(0).Sub().Add()
	m.Load(0).Const(2).Mul().Load(0).Load(0).Add().Sub().Add() // + (2x - (x+x))
	m.Const(3).Const(4).Add().Mul()                            // * 7
	m.ReturnValue()
	p := mustFinish(a, "deepExpression")
	return Program{"deepExpression", p, entry(p, "P", "run"),
		[][]int64{{0}, {1}, {-13}, {999}}}
}

// instanceOfChain: type tests over a hierarchy, incl. on null.
func instanceOfChain() Program {
	a := bc.NewAssembler()
	base := a.Class("Base", "")
	sub := a.Class("Sub", "Base")
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	o := m.NewLocal(bc.KindRef)
	m.Load(0).Const(0).IfCmp(bc.CondEQ, "mknull")
	m.Load(0).Const(1).IfCmp(bc.CondEQ, "mkbase")
	m.New(sub.Ref()).Store(o).Goto("test")
	m.Label("mknull").ConstNull().Store(o).Goto("test")
	m.Label("mkbase").New(base.Ref()).Store(o)
	m.Label("test")
	m.Load(o).InstanceOf(base.Ref()).Const(10).Mul()
	m.Load(o).InstanceOf(sub.Ref()).Add()
	m.ReturnValue()
	p := mustFinish(a, "instanceOfChain")
	return Program{"instanceOfChain", p, entry(p, "P", "run"),
		[][]int64{{0}, {1}, {2}}}
}

// aliasedStores: two locals aliasing the same virtual object; a store
// through one must be visible through the other.
func aliasedStores() Program {
	a := bc.NewAssembler()
	box, v, _, _ := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	x := m.NewLocal(bc.KindRef)
	y := m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(x)
	m.Load(x).Store(y)
	m.Load(x).Load(0).PutField(v)
	m.Load(y).GetField(v).Const(5).Add().Store(0)
	m.Load(y).Load(0).PutField(v)
	m.Load(x).GetField(v).ReturnValue()
	p := mustFinish(a, "aliasedStores")
	return Program{"aliasedStores", p, entry(p, "P", "run"),
		[][]int64{{0}, {37}}}
}

// refArray: a constant-length array of references holding virtual objects
// (paper Figure 4e/f generalized to array elements); escapes on one branch.
func refArray() Program {
	a := bc.NewAssembler()
	box, v, _, sink := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	arr := m.NewLocal(bc.KindRef)
	o := m.NewLocal(bc.KindRef)
	m.Const(2).NewArray(bc.KindRef).Store(arr)
	m.New(box.Ref()).Store(o)
	m.Load(o).Load(0).PutField(v)
	m.Load(arr).Const(0).Load(o).ArrayStore(bc.KindRef)
	m.Load(arr).Const(1).Load(arr).Const(0).ArrayLoad(bc.KindRef).ArrayStore(bc.KindRef)
	m.Load(0).Const(0).IfCmp(bc.CondLT, "escape")
	// read through the array elements: both alias the same virtual Box
	m.Load(arr).Const(1).ArrayLoad(bc.KindRef).GetField(v)
	m.Load(arr).Const(0).ArrayLoad(bc.KindRef).GetField(v).Add().ReturnValue()
	m.Label("escape").Load(arr).Const(0).ArrayLoad(bc.KindRef).PutStatic(sink)
	m.GetStatic(sink).GetField(v).ReturnValue()
	p := mustFinish(a, "refArray")
	return Program{"refArray", p, entry(p, "P", "run"),
		[][]int64{{5}, {0}, {-5}}}
}

// nestedSync: two nested synchronized regions on two distinct virtual
// objects, one of which escapes afterwards.
func nestedSync() Program {
	a := bc.NewAssembler()
	box, v, _, sink := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	x := m.NewLocal(bc.KindRef)
	y := m.NewLocal(bc.KindRef)
	r := m.NewLocal(bc.KindInt)
	m.New(box.Ref()).Store(x)
	m.New(box.Ref()).Store(y)
	m.Load(x).MonitorEnter()
	m.Load(y).MonitorEnter()
	m.Load(x).Load(0).PutField(v)
	m.Load(y).Load(0).Const(2).Mul().PutField(v)
	m.Load(x).GetField(v).Load(y).GetField(v).Add().Store(r)
	m.Load(y).MonitorExit()
	m.Load(x).MonitorExit()
	m.Load(0).Const(50).IfCmp(bc.CondLT, "done")
	m.Load(y).PutStatic(sink)
	m.Label("done").Load(r).ReturnValue()
	p := mustFinish(a, "nestedSync")
	return Program{"nestedSync", p, entry(p, "P", "run"),
		[][]int64{{1}, {49}, {50}, {999}}}
}

// selfReference: x.next = x closes a cycle in the virtual object graph;
// PEA must fall back to a real allocation (cycles are not kept virtual)
// while remaining semantically exact.
func selfReference() Program {
	a := bc.NewAssembler()
	box, v, next, _ := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	x := m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(x)
	m.Load(x).Load(0).PutField(v)
	m.Load(x).Load(x).PutField(next)
	// walk the cycle twice: x.next.next.v == x.v
	m.Load(x).GetField(next).GetField(next).GetField(v).ReturnValue()
	p := mustFinish(a, "selfReference")
	return Program{"selfReference", p, entry(p, "P", "run"),
		[][]int64{{0}, {11}, {-4}}}
}

// partialViaCallee: the escape happens inside a (inlinable) callee, so the
// partial-escape pattern only becomes visible after inlining — the
// paper's point about PEA cooperating with the inliner.
func partialViaCallee() Program {
	a := bc.NewAssembler()
	box, v, _, sink := boxClass(a)
	c := a.Class("P", "")
	pub := c.Method("publish", []bc.Kind{bc.KindRef, bc.KindInt}, bc.KindInt, true)
	pub.Load(1).Const(10).IfCmp(bc.CondGE, "esc")
	pub.Load(0).GetField(v).ReturnValue()
	pub.Label("esc").Load(0).PutStatic(sink)
	pub.Load(0).GetField(v).Const(1).Add().ReturnValue()
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	l := m.NewLocal(bc.KindRef)
	m.New(box.Ref()).Store(l)
	m.Load(l).Load(0).PutField(v)
	m.Load(l).Load(0).InvokeStatic(pub.Ref()).Const(3).Mul().ReturnValue()
	p := mustFinish(a, "partialViaCallee")
	return Program{"partialViaCallee", p, entry(p, "P", "run"),
		[][]int64{{0}, {9}, {10}, {42}}}
}

// boxedCounter: Scala/Java autoboxing pattern — a counter object threaded
// through a loop, replaced each iteration (the factorie-style workload in
// miniature).
func boxedCounter() Program {
	a := bc.NewAssembler()
	box, v, _, _ := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	o := m.NewLocal(bc.KindRef)
	i := m.NewLocal(bc.KindInt)
	m.New(box.Ref()).Store(o)
	m.Load(o).Const(0).PutField(v)
	m.Const(0).Store(i)
	m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	// o = new Box(o.v + i)  — fresh box each iteration
	t := m.NewLocal(bc.KindInt)
	m.Load(o).GetField(v).Load(i).Add().Store(t)
	m.New(box.Ref()).Store(o)
	m.Load(o).Load(t).PutField(v)
	m.Load(i).Const(1).Add().Store(i)
	m.Goto("head")
	m.Label("done").Load(o).GetField(v).ReturnValue()
	p := mustFinish(a, "boxedCounter")
	return Program{"boxedCounter", p, entry(p, "P", "run"),
		[][]int64{{0}, {1}, {30}}}
}

// throwInLoop: a rare data-dependent throw inside a loop, caught by a
// typed handler in the same iteration. The per-iteration Box stays virtual
// on the non-throwing path; the thrown Box materializes only when raised.
func throwInLoop() Program {
	a := bc.NewAssembler()
	box, v, _, _ := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	s := m.NewLocal(bc.KindInt)
	o := m.NewLocal(bc.KindRef)
	e := m.NewLocal(bc.KindRef)
	m.Const(0).Store(i).Const(0).Store(s)
	m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	m.Label("ts")
	m.New(box.Ref()).Store(o)
	m.Load(o).Load(i).PutField(v)
	m.Load(i).Const(5).Rem().Const(3).IfCmp(bc.CondNE, "ok")
	m.New(box.Ref()).Store(e)
	m.Load(e).Load(i).Const(100).Add().PutField(v)
	m.Load(e).Throw()
	m.Label("ok").Load(s).Load(o).GetField(v).Add().Store(s)
	m.Label("te").Goto("next")
	m.Label("h").Store(e)
	m.Load(s).Load(e).GetField(v).Add().Store(s)
	m.Label("next").Load(i).Const(1).Add().Store(i)
	m.Goto("head")
	m.Label("done").Load(s).ReturnValue()
	m.Exception("ts", "te", "h", box.Ref())
	p := mustFinish(a, "throwInLoop")
	return Program{"throwInLoop", p, entry(p, "P", "run"),
		[][]int64{{0}, {3}, {4}, {10}, {23}}}
}

// catchRethrow: an inner handler mutates the caught object and rethrows it
// into an outer handler — the exception object's identity and field state
// must survive the second dispatch.
func catchRethrow() Program {
	a := bc.NewAssembler()
	box, v, _, _ := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	e := m.NewLocal(bc.KindRef)
	m.Label("os")
	m.Label("is")
	m.New(box.Ref()).Store(e)
	m.Load(e).Load(0).PutField(v)
	m.Load(e).Throw()
	m.Label("ie")
	m.Label("ih").Store(e)
	m.Load(e).Load(e).GetField(v).Const(1).Add().PutField(v)
	m.Load(e).Throw()
	m.Label("oe")
	m.Label("oh").Store(e)
	m.Load(e).GetField(v).Const(2).Mul().ReturnValue()
	m.Exception("is", "ie", "ih", box.Ref())
	m.Exception("os", "oe", "oh", box.Ref())
	p := mustFinish(a, "catchRethrow")
	return Program{"catchRethrow", p, entry(p, "P", "run"),
		[][]int64{{0}, {7}, {-3}}}
}

// catchAllIntrinsic: a catch-all entry (nil class) observes both a guest
// throw and an intrinsic division trap; the intrinsic case binds null. The
// handler itself allocates — the finally-with-allocation shape.
func catchAllIntrinsic() Program {
	a := bc.NewAssembler()
	box, v, _, _ := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	o := m.NewLocal(bc.KindRef)
	e := m.NewLocal(bc.KindRef)
	f := m.NewLocal(bc.KindRef)
	s := m.NewLocal(bc.KindInt)
	m.Label("ts")
	m.New(box.Ref()).Store(o)
	m.Load(o).Load(0).PutField(v)
	m.Load(0).Const(0).IfCmp(bc.CondGE, "pos")
	m.New(box.Ref()).Store(e)
	m.Load(e).Const(7).PutField(v)
	m.Load(e).Throw()
	m.Label("pos").Const(100).Load(0).Div() // intrinsic trap when x == 0
	m.Load(o).GetField(v).Add().Store(s)
	m.Label("te").Goto("done")
	m.Label("h").Store(e)
	m.New(box.Ref()).Store(f)
	m.Load(f).Const(99).PutField(v)
	m.Load(e).IfNull(bc.CondEQ, "intr")
	m.Load(f).GetField(v).Load(e).GetField(v).Add().Store(s)
	m.Goto("done")
	m.Label("intr").Load(f).GetField(v).Neg().Store(s)
	m.Label("done").Load(s).ReturnValue()
	m.Exception("ts", "te", "h", nil)
	p := mustFinish(a, "catchAllIntrinsic")
	return Program{"catchAllIntrinsic", p, entry(p, "P", "run"),
		[][]int64{{5}, {0}, {-3}}}
}

// catchPartialEscape: the paper's partial-escape pattern mapped onto
// exception edges — the per-iteration Box escapes into the sink only on
// the rare handler path, so PEA materializes it on the exceptional edge
// and elides it everywhere else.
func catchPartialEscape() Program {
	a := bc.NewAssembler()
	box, v, _, sink := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	s := m.NewLocal(bc.KindInt)
	o := m.NewLocal(bc.KindRef)
	e := m.NewLocal(bc.KindRef)
	m.Const(0).Store(i).Const(0).Store(s)
	m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	m.New(box.Ref()).Store(o)
	m.Load(o).Load(i).PutField(v)
	m.Label("ts")
	m.Load(i).Const(7).Rem().Const(6).IfCmp(bc.CondNE, "ok")
	m.New(box.Ref()).Store(e)
	m.Load(e).Load(i).PutField(v)
	m.Load(e).Throw()
	m.Label("ok").Load(s).Load(o).GetField(v).Const(1).Add().Add().Store(s)
	m.Label("te").Goto("next")
	m.Label("h").Store(e)
	m.Load(o).PutStatic(sink)
	m.Load(s).Load(e).GetField(v).Load(o).GetField(v).Add().Add().Store(s)
	m.Label("next").Load(i).Const(1).Add().Store(i)
	m.Goto("head")
	m.Label("done").Load(s).ReturnValue()
	m.Exception("ts", "te", "h", box.Ref())
	p := mustFinish(a, "catchPartialEscape")
	return Program{"catchPartialEscape", p, entry(p, "P", "run"),
		[][]int64{{0}, {5}, {7}, {20}}}
}

// uncaughtTrap: traps that escape the entry method — one ArgSet raises an
// intrinsic division trap, another a guest throw no handler covers. The
// differential harnesses compare the canonical trap identity
// (reason, method, bci) exactly across engines.
func uncaughtTrap() Program {
	a := bc.NewAssembler()
	box, v, _, _ := boxClass(a)
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	m.Load(0).Const(0).IfCmp(bc.CondGE, "div")
	m.New(box.Ref()).Dup().Const(9).PutField(v).Throw()
	m.Label("div").Const(100).Load(0).Div().ReturnValue()
	p := mustFinish(a, "uncaughtTrap")
	return Program{"uncaughtTrap", p, entry(p, "P", "run"),
		[][]int64{{4}, {0}, {-1}}}
}

// latchReadsPhi: `j = i + 1; print(i); i = j` — the latch reads the loop
// phi after computing its back-edge input, so the two are live at once and
// must not share a slot.
func latchReadsPhi() Program {
	a := bc.NewAssembler()
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	j := m.NewLocal(bc.KindInt)
	s := m.NewLocal(bc.KindInt)
	m.Const(0).Store(i).Const(1).Store(s)
	m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	m.Load(i).Const(1).Add().Store(j)
	m.Load(i).Print()
	m.Load(s).Const(31).Mul().Load(j).Arith(bc.OpXor).Store(s)
	m.Load(j).Store(i)
	m.Goto("head")
	m.Label("done").Load(s).Load(i).Add().ReturnValue()
	p := mustFinish(a, "latchReadsPhi")
	return Program{"latchReadsPhi", p, entry(p, "P", "run"),
		[][]int64{{0}, {1}, {7}, {40}}}
}

// entryInputAfterLoop: the loop phi's entry-edge input is read again after
// the loop, so it must keep a slot of its own.
func entryInputAfterLoop() Program {
	a := bc.NewAssembler()
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt, bc.KindInt}, bc.KindInt, true)
	x := m.NewLocal(bc.KindInt)
	i := m.NewLocal(bc.KindInt)
	m.Load(0).Const(3).Mul().Const(1).Add().Store(x)
	m.Load(x).Store(i)
	m.Label("head").Load(i).Load(1).IfCmp(bc.CondGE, "done")
	m.Load(i).Const(2).Add().Store(i)
	m.Goto("head")
	m.Label("done").Load(x).Const(1000).Mul().Load(i).Add().ReturnValue()
	p := mustFinish(a, "entryInputAfterLoop")
	return Program{"entryInputAfterLoop", p, entry(p, "P", "run"),
		[][]int64{{0, 0}, {0, 9}, {2, 30}, {5, 3}}}
}

// foldSharedPhi: `t = i * 3; i = i + 1; s = s + (t ^ i)` — t reads the
// counter phi before its back-edge input is computed and is read once,
// after it, by arithmetic that could evaluate t in place.
func foldSharedPhi() Program {
	a := bc.NewAssembler()
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	s := m.NewLocal(bc.KindInt)
	t := m.NewLocal(bc.KindInt)
	m.Const(0).Store(i).Const(0).Store(s)
	m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	m.Load(i).Const(3).Mul().Store(t)
	m.Load(i).Const(1).Add().Store(i)
	m.Load(s).Load(t).Load(i).Arith(bc.OpXor).Add().Store(s)
	m.Goto("head")
	m.Label("done").Load(s).ReturnValue()
	p := mustFinish(a, "foldSharedPhi")
	return Program{"foldSharedPhi", p, entry(p, "P", "run"),
		[][]int64{{0}, {1}, {5}, {64}}}
}

// trapInLoopHandler: a loop body whose division traps into a catch-all
// handler on every fourth iteration and carries on.
func trapInLoopHandler() Program {
	a := bc.NewAssembler()
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt}, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	s := m.NewLocal(bc.KindInt)
	m.Const(0).Store(i).Const(0).Store(s)
	m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	m.Label("ts")
	m.Load(s).Const(100).Load(i).Const(4).Rem().Div().Add().Store(s)
	m.Label("te").Goto("next")
	m.Label("h").Pop()
	m.Load(s).Const(7).Add().Store(s)
	m.Label("next").Load(i).Const(1).Add().Store(i)
	m.Goto("head")
	m.Label("done").Load(s).ReturnValue()
	m.Exception("ts", "te", "h", nil)
	p := mustFinish(a, "trapInLoopHandler")
	return Program{"trapInLoopHandler", p, entry(p, "P", "run"),
		[][]int64{{0}, {1}, {4}, {9}, {50}}}
}

// exitReadsOldPhi: `j = i + 1; if (j % 5 == 4) return i; i = j` — the
// latch computes the phi's next value, then may leave the loop through an
// exit that reads the phi's old one; the way back to the header is a split
// critical edge, so the Goto into the header is not in j's block.
func exitReadsOldPhi() Program {
	a := bc.NewAssembler()
	c := a.Class("P", "")
	m := c.Method("run", []bc.Kind{bc.KindInt, bc.KindInt}, bc.KindInt, true)
	i := m.NewLocal(bc.KindInt)
	j := m.NewLocal(bc.KindInt)
	m.Load(1).Store(i)
	m.Label("head").Load(i).Load(0).IfCmp(bc.CondGE, "done")
	m.Load(i).Const(1).Add().Store(j)
	m.Load(j).Const(5).Rem().Const(4).IfCmp(bc.CondEQ, "out")
	m.Load(j).Store(i)
	m.Goto("head")
	m.Label("out").Load(i).Const(100).Mul().ReturnValue()
	m.Label("done").Load(i).ReturnValue()
	p := mustFinish(a, "exitReadsOldPhi")
	return Program{"exitReadsOldPhi", p, entry(p, "P", "run"),
		[][]int64{{0, 0}, {2, 0}, {10, 0}, {10, 5}, {3, 9}}}
}
