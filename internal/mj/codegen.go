package mj

import (
	"fmt"

	"pea/internal/bc"
)

// Compile parses, checks and compiles MiniJava source to a linked bytecode
// program. mainName names the entry point ("Main.main" convention; pass ""
// for a library without an entry point).
func Compile(src, mainName string) (*bc.Program, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	ck, err := Check(f)
	if err != nil {
		return nil, err
	}
	g := &gen{
		ck:      ck,
		asm:     bc.NewAssembler(),
		classes: make(map[*classInfo]*bc.ClassAsm),
		fields:  make(map[*fieldInfo]*bc.Field),
		methods: make(map[*methodInfo]*bc.MethodAsm),
	}
	if err := g.declare(); err != nil {
		return nil, err
	}
	if err := g.bodies(); err != nil {
		return nil, err
	}
	return g.asm.Finish(mainName)
}

// MustCompile is Compile that panics on error; for tests and examples with
// static sources.
func MustCompile(src, mainName string) *bc.Program {
	p, err := Compile(src, mainName)
	if err != nil {
		panic(err)
	}
	return p
}

func kindOf(t *Type) bc.Kind {
	switch t.Kind {
	case TypeVoid:
		return bc.KindVoid
	case TypeInt, TypeBool:
		return bc.KindInt
	default:
		return bc.KindRef
	}
}

// gen translates the checked AST to bytecode.
type gen struct {
	ck      *checker
	asm     *bc.Assembler
	classes map[*classInfo]*bc.ClassAsm
	fields  map[*fieldInfo]*bc.Field
	methods map[*methodInfo]*bc.MethodAsm
}

// declare creates all classes, fields and method shells, so bodies can
// reference any symbol.
func (g *gen) declare() error {
	for _, ci := range g.ck.order {
		ca := g.asm.Class(ci.decl.Name, ci.decl.Extends)
		g.classes[ci] = ca
		for _, fd := range ci.decl.Fields {
			var fi *fieldInfo
			if fd.Static {
				fi = ci.statics[fd.Name]
				g.fields[fi] = ca.Static(fd.Name, kindOf(fd.Type))
			} else {
				fi = ci.fields[fd.Name]
				g.fields[fi] = ca.Field(fd.Name, kindOf(fd.Type))
			}
		}
	}
	for _, ci := range g.ck.order {
		ca := g.classes[ci]
		decl := func(mi *methodInfo) {
			md := mi.decl
			params := make([]bc.Kind, len(md.Params))
			for i, p := range md.Params {
				params[i] = kindOf(p.Type)
			}
			g.methods[mi] = ca.Method(md.Name, params, kindOf(mi.ret()), md.Static)
		}
		if ci.ctor != nil {
			decl(ci.ctor)
		}
		for _, md := range ci.decl.Methods {
			if !md.IsCtor {
				decl(ci.methods[md.Name])
			}
		}
	}
	return nil
}

func (g *gen) bodies() error {
	for _, ci := range g.ck.order {
		mis := make([]*methodInfo, 0, len(ci.decl.Methods))
		if ci.ctor != nil {
			mis = append(mis, ci.ctor)
		}
		for _, md := range ci.decl.Methods {
			if !md.IsCtor {
				mis = append(mis, ci.methods[md.Name])
			}
		}
		for _, mi := range mis {
			fg := &fngen{g: g, mi: mi, ma: g.methods[mi]}
			if err := fg.run(); err != nil {
				return err
			}
		}
	}
	return nil
}

// loopCtx tracks the labels and the synchronized/try nesting of one loop.
type loopCtx struct {
	contLabel  string
	breakLabel string
	syncDepth  int
	tryDepth   int
}

// tryCtx tracks one enclosing try statement during emission: its finally
// body (nil when absent), the synchronized nesting at entry, and the
// exception-coverage segments collected so far. Segments are split
// ("holes") around inline finally copies emitted for abrupt exits, so
// handler coverage matches Java scoping: a finally copy is never covered
// by its own try or by anything nested inside it, while outer tries —
// which the finally is lexically inside — keep covering it.
type tryCtx struct {
	fin       []Stmt
	syncDepth int
	segs      []excSeg
	openStart string // label opening the current segment; "" when closed
	inBody    bool   // emitting the try body: typed catches cover it
}

type excSeg struct {
	start, end string
	body       bool // opened during the try body (typed-catch coverage)
}

// close ends the currently open coverage segment at label `at`.
func (t *tryCtx) close(at string) {
	if t.openStart == "" {
		return
	}
	t.segs = append(t.segs, excSeg{start: t.openStart, end: at, body: t.inBody})
	t.openStart = ""
}

// fngen generates one method body.
type fngen struct {
	g  *gen
	mi *methodInfo
	ma *bc.MethodAsm

	labelSeq int
	// syncSlots holds the local slots of lock temporaries for all
	// currently entered synchronized blocks.
	syncSlots []int
	loops     []loopCtx
	tries     []*tryCtx
}

func (f *fngen) label() string {
	f.labelSeq++
	return fmt.Sprintf("L%d", f.labelSeq)
}

func (f *fngen) run() error {
	md := f.mi.decl
	// Parameter slots: receiver is slot 0 for instance methods.
	base := 0
	if !md.Static {
		base = 1
	}
	for i, v := range f.mi.paramVars {
		v.slot = base + i
	}
	if err := f.stmts(md.Body); err != nil {
		return err
	}
	// Implicit trailing return for void methods and constructors.
	if kindOf(f.mi.ret()) == bc.KindVoid && !returnsAll(md.Body) {
		f.ma.Return()
	}
	return nil
}

func (f *fngen) stmts(body []Stmt) error {
	for _, s := range body {
		if err := f.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (f *fngen) stmt(s Stmt) error {
	switch s := s.(type) {
	case *VarDeclStmt:
		f.ma.SetLine(s.Line)
		v := s.Binding.(*localVar)
		v.slot = f.ma.NewLocal(kindOf(v.typ))
		if err := f.expr(s.Init); err != nil {
			return err
		}
		f.ma.Store(v.slot)
		return nil
	case *AssignStmt:
		f.ma.SetLine(s.Line)
		return f.assign(s)
	case *IfStmt:
		f.ma.SetLine(s.Line)
		elseL, endL := f.label(), f.label()
		if err := f.condJump(s.Cond, elseL, false); err != nil {
			return err
		}
		if err := f.stmts(s.Then); err != nil {
			return err
		}
		if len(s.Else) > 0 {
			f.ma.Goto(endL)
		}
		f.ma.Label(elseL)
		if len(s.Else) > 0 {
			if err := f.stmts(s.Else); err != nil {
				return err
			}
			f.ma.Label(endL)
		}
		return nil
	case *WhileStmt:
		f.ma.SetLine(s.Line)
		head, end := f.label(), f.label()
		f.ma.Label(head)
		if err := f.condJump(s.Cond, end, false); err != nil {
			return err
		}
		f.loops = append(f.loops, loopCtx{contLabel: head, breakLabel: end,
			syncDepth: len(f.syncSlots), tryDepth: len(f.tries)})
		err := f.stmts(s.Body)
		f.loops = f.loops[:len(f.loops)-1]
		if err != nil {
			return err
		}
		f.ma.Goto(head)
		f.ma.Label(end)
		return nil
	case *ForStmt:
		f.ma.SetLine(s.Line)
		if s.Init != nil {
			if err := f.stmt(s.Init); err != nil {
				return err
			}
		}
		head, cont, end := f.label(), f.label(), f.label()
		f.ma.Label(head)
		if s.Cond != nil {
			if err := f.condJump(s.Cond, end, false); err != nil {
				return err
			}
		}
		f.loops = append(f.loops, loopCtx{contLabel: cont, breakLabel: end,
			syncDepth: len(f.syncSlots), tryDepth: len(f.tries)})
		err := f.stmts(s.Body)
		f.loops = f.loops[:len(f.loops)-1]
		if err != nil {
			return err
		}
		f.ma.Label(cont)
		if s.Post != nil {
			if err := f.stmt(s.Post); err != nil {
				return err
			}
		}
		f.ma.Goto(head)
		f.ma.Label(end)
		return nil
	case *BreakStmt:
		l := f.loops[len(f.loops)-1]
		return f.abruptExit(l.tryDepth, l.syncDepth, func() { f.ma.Goto(l.breakLabel) })
	case *ContinueStmt:
		l := f.loops[len(f.loops)-1]
		return f.abruptExit(l.tryDepth, l.syncDepth, func() { f.ma.Goto(l.contLabel) })
	case *ReturnStmt:
		f.ma.SetLine(s.Line)
		if s.Value != nil {
			if err := f.expr(s.Value); err != nil {
				return err
			}
			// Inline finally copies between here and the return run with
			// an empty stack; spill the return value to a slot and reload
			// it at the jump itself.
			for _, t := range f.tries {
				if t.fin != nil {
					tmp := f.ma.NewLocal(kindOf(s.Value.typ()))
					f.ma.Store(tmp)
					return f.abruptExit(0, 0, func() { f.ma.Load(tmp).ReturnValue() })
				}
			}
			return f.abruptExit(0, 0, func() { f.ma.ReturnValue() })
		}
		return f.abruptExit(0, 0, func() { f.ma.Return() })
	case *ExprStmt:
		f.ma.SetLine(s.Line)
		call := s.X.(*CallExpr)
		if err := f.expr(call); err != nil {
			return err
		}
		if kindOf(call.T) != bc.KindVoid {
			f.ma.Pop()
		}
		return nil
	case *PrintStmt:
		f.ma.SetLine(s.Line)
		if err := f.expr(s.X); err != nil {
			return err
		}
		f.ma.Print()
		return nil
	case *SyncStmt:
		f.ma.SetLine(s.Line)
		if err := f.expr(s.Lock); err != nil {
			return err
		}
		slot := f.ma.NewLocal(bc.KindRef)
		f.ma.Dup().Store(slot).MonitorEnter()
		f.syncSlots = append(f.syncSlots, slot)
		err := f.stmts(s.Body)
		f.syncSlots = f.syncSlots[:len(f.syncSlots)-1]
		if err != nil {
			return err
		}
		if !returnsAll(s.Body) {
			f.ma.Load(slot).MonitorExit()
		}
		return nil
	case *ThrowStmt:
		f.ma.SetLine(s.Line)
		if err := f.expr(s.X); err != nil {
			return err
		}
		f.ma.Throw()
		return nil
	case *TryStmt:
		return f.tryStmt(s)
	case *BlockStmt:
		return f.stmts(s.Body)
	default:
		return fmt.Errorf("mj: codegen: unknown statement %T", s)
	}
}

// releaseSyncs releases monitors entered between nesting depths to and
// from (from >= to), innermost first.
func (f *fngen) releaseSyncs(from, to int) {
	for i := from - 1; i >= to; i-- {
		f.ma.Load(f.syncSlots[i]).MonitorExit()
	}
}

// abruptExit emits the monitor releases and finally copies owed by a
// return, break, or continue crossing tries down to tryDepth and
// synchronized blocks down to syncDepth, then the jump itself via
// emitJump. Coverage segments of crossed tries are split around each
// inline finally copy (see tryCtx): the copy of try i's finally leaves
// the coverage of i and everything nested inside it, but stays inside
// outer tries' coverage.
func (f *fngen) abruptExit(tryDepth, syncDepth int, emitJump func()) error {
	anyFin := false
	for _, t := range f.tries[tryDepth:] {
		if t.fin != nil {
			anyFin = true
		}
	}
	if !anyFin {
		f.releaseSyncs(len(f.syncSlots), syncDepth)
		emitJump()
		return nil
	}
	saved := f.tries
	closedFrom := len(saved) // tries at index >= closedFrom are closed
	syncs := len(f.syncSlots)
	for i := len(saved) - 1; i >= tryDepth; i-- {
		t := saved[i]
		if t.fin == nil {
			continue
		}
		f.releaseSyncs(syncs, t.syncDepth)
		syncs = t.syncDepth
		if i < closedFrom {
			at := f.label()
			f.ma.Label(at)
			for j := closedFrom - 1; j >= i; j-- {
				saved[j].close(at)
			}
			closedFrom = i
		}
		// A return inside this finally copy re-runs only outer finallys.
		f.tries = saved[:i]
		err := f.stmts(t.fin)
		f.tries = saved
		if err != nil {
			return err
		}
	}
	f.releaseSyncs(syncs, syncDepth)
	emitJump()
	if closedFrom < len(saved) {
		at := f.label()
		f.ma.Label(at)
		for j := closedFrom; j < len(saved); j++ {
			saved[j].openStart = at
		}
	}
	return nil
}

// tryStmt lowers try/catch/finally onto the exception table. Layout:
//
//	Ls:  body                     ─ typed catches + catch-all cover this
//	Le:  goto norm
//	Hi:  store eᵢ; catch body;    ─ only the catch-all covers these
//	     goto norm                  (an exception in a catch runs finally)
//	Lce:
//	Hf:  store tmp; finally;      ─ uncovered: exceptions here propagate
//	     load tmp; throw            and finally never re-runs
//	norm: finally                 ─ normal-completion copy, uncovered
//
// Table order is typed entries first (declaration order, first match
// wins), then the finally's catch-all. Rethrow after finally restores the
// caught object; an intrinsic trap was bound as null, so its rethrow
// surfaces as a fresh "null throw" — a documented approximation.
func (f *fngen) tryStmt(s *TryStmt) error {
	f.ma.SetLine(s.Line)
	start := f.label()
	f.ma.Label(start)
	ctx := &tryCtx{fin: s.Finally, syncDepth: len(f.syncSlots), openStart: start, inBody: true}
	f.tries = append(f.tries, ctx)
	pop := func() { f.tries = f.tries[:len(f.tries)-1] }
	if err := f.stmts(s.Body); err != nil {
		pop()
		return err
	}
	bodyEnd := f.label()
	f.ma.Label(bodyEnd)
	ctx.close(bodyEnd)
	ctx.inBody = false
	norm := f.label()
	f.ma.Goto(norm)
	type handlerEntry struct {
		label string
		class *bc.Class
	}
	var handlers []handlerEntry
	for i, cc := range s.Catches {
		h := f.label()
		f.ma.Label(h)
		if i == 0 && s.Finally != nil {
			ctx.openStart = h
		}
		handlers = append(handlers, handlerEntry{
			label: h,
			class: f.g.classes[f.g.ck.classes[cc.Class]].Ref(),
		})
		v := cc.Binding.(*localVar)
		v.slot = f.ma.NewLocal(bc.KindRef)
		f.ma.Store(v.slot)
		if err := f.stmts(cc.Body); err != nil {
			pop()
			return err
		}
		f.ma.Goto(norm)
	}
	if s.Finally != nil && len(s.Catches) > 0 {
		catchEnd := f.label()
		f.ma.Label(catchEnd)
		ctx.close(catchEnd)
	}
	pop()
	var allHandler string
	if s.Finally != nil {
		allHandler = f.label()
		f.ma.Label(allHandler)
		tmp := f.ma.NewLocal(bc.KindRef)
		f.ma.Store(tmp)
		if err := f.stmts(s.Finally); err != nil {
			return err
		}
		if !returnsAll(s.Finally) {
			f.ma.Load(tmp).Throw()
		}
	}
	f.ma.Label(norm)
	if s.Finally != nil {
		if err := f.stmts(s.Finally); err != nil {
			return err
		}
	}
	for _, h := range handlers {
		for _, seg := range ctx.segs {
			if seg.body {
				f.ma.Exception(seg.start, seg.end, h.label, h.class)
			}
		}
	}
	if s.Finally != nil {
		for _, seg := range ctx.segs {
			f.ma.Exception(seg.start, seg.end, allHandler, nil)
		}
	}
	return nil
}

func (f *fngen) assign(s *AssignStmt) error {
	if s.Compound {
		if done, err := f.compoundAssign(s); done || err != nil {
			return err
		}
	}
	switch t := s.Target.(type) {
	case *IdentExpr:
		switch b := t.Binding.(type) {
		case *localVar:
			if err := f.expr(s.Value); err != nil {
				return err
			}
			f.ma.Store(b.slot)
		case *fieldInfo:
			if b.static {
				if err := f.expr(s.Value); err != nil {
					return err
				}
				f.ma.PutStatic(f.g.fields[b])
			} else {
				f.ma.Load(0)
				if err := f.expr(s.Value); err != nil {
					return err
				}
				f.ma.PutField(f.g.fields[b])
			}
		default:
			return fmt.Errorf("mj: codegen: unresolved identifier %s", t.Name)
		}
		return nil
	case *FieldExpr:
		fi := t.Ref.(*fieldInfo)
		if fi.static {
			if err := f.expr(s.Value); err != nil {
				return err
			}
			f.ma.PutStatic(f.g.fields[fi])
			return nil
		}
		if err := f.expr(t.Obj); err != nil {
			return err
		}
		if err := f.expr(s.Value); err != nil {
			return err
		}
		f.ma.PutField(f.g.fields[fi])
		return nil
	case *IndexExpr:
		if err := f.expr(t.Arr); err != nil {
			return err
		}
		if err := f.expr(t.Idx); err != nil {
			return err
		}
		if err := f.expr(s.Value); err != nil {
			return err
		}
		f.ma.ArrayStore(kindOf(t.T))
		return nil
	default:
		return fmt.Errorf("mj: codegen: bad assignment target %T", t)
	}
}

// compoundAssign generates x op= y where x is an instance field or an array
// element, evaluating x's object, or its array and index, once: Java's
// order, in which a null array or a bad index traps after both are
// evaluated and before y is. It reports false for any other target, whose
// reads have no effects, so the plain assignment of x op y serves.
func (f *fngen) compoundAssign(s *AssignStmt) (bool, error) {
	bin := s.Value.(*BinaryExpr)
	op := binaryOpOf(bin.Op).op
	switch t := s.Target.(type) {
	case *FieldExpr:
		fi := t.Ref.(*fieldInfo)
		if fi.static {
			return false, nil
		}
		if err := f.expr(t.Obj); err != nil {
			return true, err
		}
		f.ma.Dup().GetField(f.g.fields[fi])
		if err := f.expr(bin.R); err != nil {
			return true, err
		}
		f.ma.Arith(op).PutField(f.g.fields[fi])
		return true, nil
	case *IndexExpr:
		arr, idx := f.ma.NewLocal(bc.KindRef), f.ma.NewLocal(bc.KindInt)
		if err := f.expr(t.Arr); err != nil {
			return true, err
		}
		f.ma.Store(arr)
		if err := f.expr(t.Idx); err != nil {
			return true, err
		}
		f.ma.Store(idx)
		f.ma.Load(arr).Load(idx).Load(arr).Load(idx).ArrayLoad(kindOf(t.T))
		if err := f.expr(bin.R); err != nil {
			return true, err
		}
		f.ma.Arith(op).ArrayStore(kindOf(t.T))
		return true, nil
	}
	return false, nil
}

// expr generates code leaving the expression's value on the stack.
func (f *fngen) expr(e Expr) error {
	switch e := e.(type) {
	case *IntLit:
		f.ma.Const(e.Val)
	case *BoolLit:
		if e.Val {
			f.ma.Const(1)
		} else {
			f.ma.Const(0)
		}
	case *NullLit:
		f.ma.ConstNull()
	case *ThisExpr:
		f.ma.Load(0)
	case *IdentExpr:
		switch b := e.Binding.(type) {
		case *localVar:
			f.ma.Load(b.slot)
		case *fieldInfo:
			if b.static {
				f.ma.GetStatic(f.g.fields[b])
			} else {
				f.ma.Load(0).GetField(f.g.fields[b])
			}
		default:
			return fmt.Errorf("mj: codegen: unresolved identifier %s", e.Name)
		}
	case *FieldExpr:
		fi := e.Ref.(*fieldInfo)
		if fi.static {
			f.ma.GetStatic(f.g.fields[fi])
			return nil
		}
		if err := f.expr(e.Obj); err != nil {
			return err
		}
		f.ma.GetField(f.g.fields[fi])
	case *IndexExpr:
		if err := f.expr(e.Arr); err != nil {
			return err
		}
		if err := f.expr(e.Idx); err != nil {
			return err
		}
		f.ma.ArrayLoad(kindOf(e.T))
	case *LenExpr:
		if err := f.expr(e.Arr); err != nil {
			return err
		}
		f.ma.ArrayLen()
	case *CallExpr:
		mi := e.Ref.(*methodInfo)
		if !mi.decl.Static {
			if e.Obj != nil {
				if err := f.expr(e.Obj); err != nil {
					return err
				}
			} else {
				f.ma.Load(0) // implicit this
			}
		}
		for _, a := range e.Args {
			if err := f.expr(a); err != nil {
				return err
			}
		}
		if mi.decl.Static {
			f.ma.InvokeStatic(f.g.methods[mi].Ref())
		} else {
			f.ma.InvokeVirtual(f.g.methods[mi].Ref())
		}
	case *NewExpr:
		ci := f.g.ck.classes[e.Class]
		f.ma.New(f.g.classes[ci].Ref())
		if ci.ctor != nil {
			f.ma.Dup()
			for _, a := range e.Args {
				if err := f.expr(a); err != nil {
					return err
				}
			}
			f.ma.InvokeDirect(f.g.methods[ci.ctor].Ref())
		}
	case *NewArrayExpr:
		if err := f.expr(e.Len); err != nil {
			return err
		}
		f.ma.NewArray(kindOf(e.Elem))
	case *UnaryExpr:
		switch e.Op {
		case "-":
			if err := f.expr(e.X); err != nil {
				return err
			}
			f.ma.Neg()
		case "~":
			if err := f.expr(e.X); err != nil {
				return err
			}
			f.ma.Const(-1).Arith(bc.OpXor)
		case "!":
			if err := f.expr(e.X); err != nil {
				return err
			}
			f.ma.Const(1).Arith(bc.OpXor)
		}
	case *BinaryExpr:
		op := binaryOpOf(e.Op)
		if op.class == logic || op.class == equality && e.L.typ().isRef() {
			return f.boolViaBranches(e)
		}
		if err := f.expr(e.L); err != nil {
			return err
		}
		if err := f.expr(e.R); err != nil {
			return err
		}
		if op.class == arith {
			f.ma.Arith(op.op)
		} else {
			f.ma.Cmp(op.cond)
		}
	case *InstanceOfExpr:
		if err := f.expr(e.X); err != nil {
			return err
		}
		f.ma.InstanceOf(f.g.classes[f.g.ck.classes[e.Class]].Ref())
	case *RandExpr:
		mod := int64(0)
		if e.Mod != nil {
			mod = e.Mod.(*IntLit).Val
		}
		f.ma.Rand(mod)
	default:
		return fmt.Errorf("mj: codegen: unknown expression %T", e)
	}
	return nil
}

// boolViaBranches materializes a boolean value for expressions that only
// have branching forms (short-circuit operators, reference comparisons).
func (f *fngen) boolViaBranches(e Expr) error {
	trueL, endL := f.label(), f.label()
	if err := f.condJump(e, trueL, true); err != nil {
		return err
	}
	f.ma.Const(0).Goto(endL)
	f.ma.Label(trueL).Const(1)
	f.ma.Label(endL)
	return nil
}

// condJump emits a jump to label when e evaluates to whenTrue, falling
// through otherwise.
func (f *fngen) condJump(e Expr, label string, whenTrue bool) error {
	switch e := e.(type) {
	case *BoolLit:
		if e.Val == whenTrue {
			f.ma.Goto(label)
		}
		return nil
	case *UnaryExpr:
		if e.Op == "!" {
			return f.condJump(e.X, label, !whenTrue)
		}
	case *BinaryExpr:
		switch op := binaryOpOf(e.Op); op.class {
		case logic:
			// An && that jumps when false, or an || that jumps when true,
			// jumps from either operand; otherwise the left one skips the
			// right.
			if whenTrue != (e.Op == "&&") {
				if err := f.condJump(e.L, label, whenTrue); err != nil {
					return err
				}
				return f.condJump(e.R, label, whenTrue)
			}
			skip := f.label()
			if err := f.condJump(e.L, skip, !whenTrue); err != nil {
				return err
			}
			if err := f.condJump(e.R, label, whenTrue); err != nil {
				return err
			}
			f.ma.Label(skip)
			return nil
		case order, equality:
			cond := op.cond
			if !whenTrue {
				cond = cond.Negate()
			}
			ref := op.class == equality && e.L.typ().isRef()
			if ref {
				// Prefer IfNull when one side is the null literal.
				if _, ok := e.R.(*NullLit); ok {
					if err := f.expr(e.L); err != nil {
						return err
					}
					f.ma.IfNull(cond, label)
					return nil
				}
				if _, ok := e.L.(*NullLit); ok {
					if err := f.expr(e.R); err != nil {
						return err
					}
					f.ma.IfNull(cond, label)
					return nil
				}
			}
			if err := f.expr(e.L); err != nil {
				return err
			}
			if err := f.expr(e.R); err != nil {
				return err
			}
			if ref {
				f.ma.IfRef(cond, label)
			} else {
				f.ma.IfCmp(cond, label)
			}
			return nil
		}
	}
	// Generic boolean value.
	if err := f.expr(e); err != nil {
		return err
	}
	if whenTrue {
		f.ma.If(bc.CondNE, label)
	} else {
		f.ma.If(bc.CondEQ, label)
	}
	return nil
}
