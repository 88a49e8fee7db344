package mj

import "fmt"

// classInfo is the checker's view of a class.
type classInfo struct {
	decl    *ClassDecl
	super   *classInfo
	fields  map[string]*fieldInfo
	statics map[string]*fieldInfo
	methods map[string]*methodInfo
	ctor    *methodInfo
}

type fieldInfo struct {
	name   string
	typ    *Type
	static bool
	owner  *classInfo
}

type methodInfo struct {
	decl  *MethodDecl
	owner *classInfo
	// paramVars are the checker-created bindings for the parameters, in
	// declaration order; codegen assigns their slots.
	paramVars []*localVar
}

// ret returns the method's return type (void for constructors).
func (m *methodInfo) ret() *Type {
	if m.decl.Ret == nil {
		return typeVoid
	}
	return m.decl.Ret
}

// checker resolves names and types over a parsed file.
type checker struct {
	classes map[string]*classInfo
	order   []*classInfo

	// current method context
	cls    *classInfo
	method *methodInfo
	scopes []map[string]*localVar
	loops  int
}

// localVar is a resolved local variable or parameter.
type localVar struct {
	name string
	typ  *Type
	// slot is assigned by codegen.
	slot int
}

// Check resolves and type-checks the file, annotating the AST in place,
// and returns the resolved symbol tables for code generation.
func Check(f *File) (*checker, error) {
	c := &checker{classes: make(map[string]*classInfo)}
	// Pass 1: declare classes.
	for _, cd := range f.Classes {
		if _, dup := c.classes[cd.Name]; dup {
			return nil, errf(cd.Line, 1, "duplicate class %s", cd.Name)
		}
		ci := &classInfo{
			decl:    cd,
			fields:  make(map[string]*fieldInfo),
			statics: make(map[string]*fieldInfo),
			methods: make(map[string]*methodInfo),
		}
		c.classes[cd.Name] = ci
		c.order = append(c.order, ci)
	}
	// Pass 2: supers, members.
	for _, ci := range c.order {
		cd := ci.decl
		if cd.Extends != "" {
			sup := c.classes[cd.Extends]
			if sup == nil {
				return nil, errf(cd.Line, 1, "class %s extends unknown class %s", cd.Name, cd.Extends)
			}
			ci.super = sup
		}
		for _, fd := range cd.Fields {
			if err := c.checkType(fd.Type, fd.Line); err != nil {
				return nil, err
			}
			fi := &fieldInfo{name: fd.Name, typ: fd.Type, static: fd.Static, owner: ci}
			m := ci.fields
			if fd.Static {
				m = ci.statics
			}
			if _, dup := m[fd.Name]; dup {
				return nil, errf(fd.Line, 1, "class %s redeclares field %s", cd.Name, fd.Name)
			}
			m[fd.Name] = fi
		}
		for _, md := range cd.Methods {
			mi := &methodInfo{decl: md, owner: ci}
			if md.IsCtor {
				if ci.ctor != nil {
					return nil, errf(md.Line, 1, "class %s has multiple constructors", cd.Name)
				}
				ci.ctor = mi
				continue
			}
			if _, dup := ci.methods[md.Name]; dup {
				return nil, errf(md.Line, 1, "class %s redeclares method %s", cd.Name, md.Name)
			}
			ci.methods[md.Name] = mi
		}
	}
	// Check for inheritance cycles.
	for _, ci := range c.order {
		seen := map[*classInfo]bool{}
		for s := ci; s != nil; s = s.super {
			if seen[s] {
				return nil, errf(ci.decl.Line, 1, "inheritance cycle through %s", ci.decl.Name)
			}
			seen[s] = true
		}
	}
	// Pass 3: bodies.
	for _, ci := range c.order {
		for _, md := range ci.decl.Methods {
			mi := &methodInfo{decl: md, owner: ci}
			if md.IsCtor {
				mi = ci.ctor
			} else {
				mi = ci.methods[md.Name]
			}
			if err := c.checkMethod(ci, mi); err != nil {
				return nil, err
			}
		}
	}
	return c, nil
}

func (c *checker) checkType(t *Type, line int) error {
	switch t.Kind {
	case TypeClass:
		if c.classes[t.Class] == nil {
			return errf(line, 1, "unknown type %s", t.Class)
		}
	case TypeArray:
		return c.checkType(t.Elem, line)
	}
	return nil
}

// lookupField searches the hierarchy for an instance field.
func (ci *classInfo) lookupField(name string) *fieldInfo {
	for s := ci; s != nil; s = s.super {
		if f := s.fields[name]; f != nil {
			return f
		}
	}
	return nil
}

// lookupStatic searches the hierarchy for a static field.
func (ci *classInfo) lookupStatic(name string) *fieldInfo {
	for s := ci; s != nil; s = s.super {
		if f := s.statics[name]; f != nil {
			return f
		}
	}
	return nil
}

// lookupMethod searches the hierarchy for a method.
func (ci *classInfo) lookupMethod(name string) *methodInfo {
	for s := ci; s != nil; s = s.super {
		if m := s.methods[name]; m != nil {
			return m
		}
	}
	return nil
}

// isSubclassOf reports whether ci is k or below it.
func (ci *classInfo) isSubclassOf(k *classInfo) bool {
	for s := ci; s != nil; s = s.super {
		if s == k {
			return true
		}
	}
	return false
}

func (c *checker) checkMethod(ci *classInfo, mi *methodInfo) error {
	md := mi.decl
	c.cls = ci
	c.method = mi
	c.scopes = []map[string]*localVar{{}}
	c.loops = 0
	mi.paramVars = mi.paramVars[:0]
	for _, p := range md.Params {
		if err := c.checkType(p.Type, md.Line); err != nil {
			return err
		}
		if err := c.declare(p.Name, p.Type, md.Line); err != nil {
			return err
		}
		mi.paramVars = append(mi.paramVars, c.lookupLocal(p.Name))
	}
	if md.Ret != nil {
		if err := c.checkType(md.Ret, md.Line); err != nil {
			return err
		}
	}
	if err := c.stmts(md.Body); err != nil {
		return err
	}
	if mi.ret().Kind != TypeVoid && !returnsAll(md.Body) {
		return errf(md.Line, 1, "method %s.%s: missing return statement",
			ci.decl.Name, md.Name)
	}
	return nil
}

func (c *checker) declare(name string, t *Type, line int) error {
	top := c.scopes[len(c.scopes)-1]
	if _, dup := top[name]; dup {
		return errf(line, 1, "duplicate variable %s", name)
	}
	top[name] = &localVar{name: name, typ: t, slot: -1}
	return nil
}

func (c *checker) lookupLocal(name string) *localVar {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if v := c.scopes[i][name]; v != nil {
			return v
		}
	}
	return nil
}

func (c *checker) pushScope() { c.scopes = append(c.scopes, map[string]*localVar{}) }
func (c *checker) popScope()  { c.scopes = c.scopes[:len(c.scopes)-1] }

// returnsAll conservatively reports whether every path through the
// statement list ends in return or throw.
func returnsAll(body []Stmt) bool {
	for _, s := range body {
		switch s := s.(type) {
		case *ReturnStmt, *ThrowStmt:
			return true
		case *IfStmt:
			if len(s.Else) > 0 && returnsAll(s.Then) && returnsAll(s.Else) {
				return true
			}
		case *BlockStmt:
			if returnsAll(s.Body) {
				return true
			}
		case *SyncStmt:
			if returnsAll(s.Body) {
				return true
			}
		case *WhileStmt:
			if lit, ok := s.Cond.(*BoolLit); ok && lit.Val && !hasBreak(s.Body) {
				return true
			}
		case *TryStmt:
			// A finally that itself returns dominates every completion.
			if s.Finally != nil && returnsAll(s.Finally) {
				return true
			}
			all := returnsAll(s.Body)
			for _, cc := range s.Catches {
				all = all && returnsAll(cc.Body)
			}
			if all {
				return true
			}
		}
	}
	return false
}

// hasBreak reports whether the statement list contains a break at this loop
// level.
func hasBreak(body []Stmt) bool {
	for _, s := range body {
		switch s := s.(type) {
		case *BreakStmt:
			return true
		case *IfStmt:
			if hasBreak(s.Then) || hasBreak(s.Else) {
				return true
			}
		case *BlockStmt:
			if hasBreak(s.Body) {
				return true
			}
		case *SyncStmt:
			if hasBreak(s.Body) {
				return true
			}
		case *TryStmt:
			if hasBreak(s.Body) || hasBreak(s.Finally) {
				return true
			}
			for _, cc := range s.Catches {
				if hasBreak(cc.Body) {
					return true
				}
			}
		}
	}
	return false
}

func (c *checker) stmts(body []Stmt) error {
	for _, s := range body {
		if err := c.stmt(s); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) stmt(s Stmt) error {
	switch s := s.(type) {
	case *VarDeclStmt:
		if err := c.checkType(s.Type, s.Line); err != nil {
			return err
		}
		t, err := c.expr(s.Init)
		if err != nil {
			return err
		}
		if !c.assignable(s.Type, t) {
			return errf(s.Line, 1, "cannot initialize %s %s with %s", s.Type, s.Name, t)
		}
		if err := c.declare(s.Name, s.Type, s.Line); err != nil {
			return err
		}
		s.Binding = c.lookupLocal(s.Name)
		return nil
	case *AssignStmt:
		lt, err := c.expr(s.Target)
		if err != nil {
			return err
		}
		if !isLValue(s.Target) {
			return errf(s.Line, 1, "left-hand side is not assignable")
		}
		rt, err := c.expr(s.Value)
		if err != nil {
			return err
		}
		if !c.assignable(lt, rt) {
			return errf(s.Line, 1, "cannot assign %s to %s", rt, lt)
		}
		return nil
	case *IfStmt:
		if err := c.condExpr(s.Cond, s.Line); err != nil {
			return err
		}
		c.pushScope()
		err := c.stmts(s.Then)
		c.popScope()
		if err != nil {
			return err
		}
		c.pushScope()
		err = c.stmts(s.Else)
		c.popScope()
		return err
	case *WhileStmt:
		if err := c.condExpr(s.Cond, s.Line); err != nil {
			return err
		}
		c.loops++
		c.pushScope()
		err := c.stmts(s.Body)
		c.popScope()
		c.loops--
		return err
	case *ForStmt:
		c.pushScope()
		defer c.popScope()
		if s.Init != nil {
			if err := c.stmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if err := c.condExpr(s.Cond, s.Line); err != nil {
				return err
			}
		}
		if s.Post != nil {
			if err := c.stmt(s.Post); err != nil {
				return err
			}
		}
		c.loops++
		c.pushScope()
		err := c.stmts(s.Body)
		c.popScope()
		c.loops--
		return err
	case *BreakStmt:
		if c.loops == 0 {
			return errf(s.Line, 1, "break outside a loop")
		}
		return nil
	case *ContinueStmt:
		if c.loops == 0 {
			return errf(s.Line, 1, "continue outside a loop")
		}
		return nil
	case *ReturnStmt:
		want := c.method.ret()
		if s.Value == nil {
			if want.Kind != TypeVoid {
				return errf(s.Line, 1, "missing return value (want %s)", want)
			}
			return nil
		}
		if want.Kind == TypeVoid {
			return errf(s.Line, 1, "void method returns a value")
		}
		t, err := c.expr(s.Value)
		if err != nil {
			return err
		}
		if !c.assignable(want, t) {
			return errf(s.Line, 1, "cannot return %s from a %s method", t, want)
		}
		return nil
	case *ExprStmt:
		_, err := c.expr(s.X)
		if err != nil {
			return err
		}
		if _, ok := s.X.(*CallExpr); !ok {
			return errf(s.Line, 1, "expression statement must be a call")
		}
		return nil
	case *PrintStmt:
		t, err := c.expr(s.X)
		if err != nil {
			return err
		}
		if t.Kind != TypeInt && t.Kind != TypeBool {
			return errf(s.Line, 1, "print expects int or boolean, got %s", t)
		}
		return nil
	case *SyncStmt:
		t, err := c.expr(s.Lock)
		if err != nil {
			return err
		}
		if !t.isRef() || t.Kind == TypeNull {
			return errf(s.Line, 1, "synchronized expects an object, got %s", t)
		}
		c.pushScope()
		err = c.stmts(s.Body)
		c.popScope()
		return err
	case *ThrowStmt:
		t, err := c.expr(s.X)
		if err != nil {
			return err
		}
		if t.Kind != TypeClass {
			return errf(s.Line, 1, "throw expects an object, got %s", t)
		}
		return nil
	case *TryStmt:
		c.pushScope()
		err := c.stmts(s.Body)
		c.popScope()
		if err != nil {
			return err
		}
		for _, cc := range s.Catches {
			if c.classes[cc.Class] == nil {
				return errf(cc.Line, 1, "catch of unknown class %s", cc.Class)
			}
			c.pushScope()
			if err := c.declare(cc.Name, &Type{Kind: TypeClass, Class: cc.Class}, cc.Line); err != nil {
				c.popScope()
				return err
			}
			cc.Binding = c.lookupLocal(cc.Name)
			err := c.stmts(cc.Body)
			c.popScope()
			if err != nil {
				return err
			}
		}
		if s.Finally != nil {
			c.pushScope()
			err := c.stmts(s.Finally)
			c.popScope()
			return err
		}
		return nil
	case *BlockStmt:
		c.pushScope()
		err := c.stmts(s.Body)
		c.popScope()
		return err
	default:
		return fmt.Errorf("mj: unknown statement %T", s)
	}
}

func (c *checker) condExpr(e Expr, line int) error {
	t, err := c.expr(e)
	if err != nil {
		return err
	}
	if t.Kind != TypeBool {
		return errf(line, 1, "condition must be boolean, got %s", t)
	}
	return nil
}

func isLValue(e Expr) bool {
	switch e := e.(type) {
	case *IdentExpr:
		_, isLocal := e.Binding.(*localVar)
		_, isField := e.Binding.(*fieldInfo)
		return isLocal || isField
	case *FieldExpr, *IndexExpr:
		return true
	}
	return false
}

// assignable reports whether a value of type src may be stored into dst.
func (c *checker) assignable(dst, src *Type) bool {
	if dst.Kind == src.Kind {
		switch dst.Kind {
		case TypeInt, TypeBool:
			return true
		case TypeClass:
			d, s := c.classes[dst.Class], c.classes[src.Class]
			return d != nil && s != nil && s.isSubclassOf(d)
		case TypeArray:
			return c.sameType(dst.Elem, src.Elem)
		}
	}
	if dst.isRef() && src.Kind == TypeNull {
		return true
	}
	return false
}

func (c *checker) sameType(a, b *Type) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case TypeClass:
		return a.Class == b.Class
	case TypeArray:
		return c.sameType(a.Elem, b.Elem)
	}
	return true
}

// classNamed returns the classInfo when name names a class and is not
// shadowed by a local.
func (c *checker) classNamed(name string) *classInfo {
	if c.lookupLocal(name) != nil {
		return nil
	}
	return c.classes[name]
}

func (c *checker) expr(e Expr) (*Type, error) {
	if t := e.typ(); t != nil { // checked already: x op= v shares x with its left operand
		return t, nil
	}
	switch e := e.(type) {
	case *IntLit:
		e.T = typeInt
	case *BoolLit:
		e.T = typeBool
	case *NullLit:
		e.T = typeNull
	case *ThisExpr:
		if c.method.decl.Static {
			return nil, errf(e.Line, 1, "this in a static method")
		}
		e.T = &Type{Kind: TypeClass, Class: c.cls.decl.Name}
	case *IdentExpr:
		if v := c.lookupLocal(e.Name); v != nil {
			e.Binding = v
			e.T = v.typ
			break
		}
		if !c.method.decl.Static && c.method.decl != nil {
			if f := c.cls.lookupField(e.Name); f != nil {
				e.Binding = f
				e.T = f.typ
				break
			}
		}
		if f := c.cls.lookupStatic(e.Name); f != nil {
			e.Binding = f
			e.T = f.typ
			break
		}
		return nil, errf(e.Line, 1, "undefined: %s", e.Name)
	case *FieldExpr:
		// Class-qualified static access?
		if id, ok := e.Obj.(*IdentExpr); ok {
			if ci := c.classNamed(id.Name); ci != nil {
				f := ci.lookupStatic(e.Name)
				if f == nil {
					return nil, errf(e.Line, 1, "class %s has no static field %s", id.Name, e.Name)
				}
				e.Obj = nil
				e.Cls = id.Name
				e.Ref = f
				e.T = f.typ
				break
			}
		}
		t, err := c.expr(e.Obj)
		if err != nil {
			return nil, err
		}
		if t.Kind != TypeClass {
			return nil, errf(e.Line, 1, "field access on non-object type %s", t)
		}
		f := c.classes[t.Class].lookupField(e.Name)
		if f == nil {
			return nil, errf(e.Line, 1, "class %s has no field %s", t.Class, e.Name)
		}
		e.Ref = f
		e.T = f.typ
	case *IndexExpr:
		at, err := c.expr(e.Arr)
		if err != nil {
			return nil, err
		}
		if at.Kind != TypeArray {
			return nil, errf(e.Line, 1, "indexing non-array type %s", at)
		}
		it, err := c.expr(e.Idx)
		if err != nil {
			return nil, err
		}
		if it.Kind != TypeInt {
			return nil, errf(e.Line, 1, "array index must be int, got %s", it)
		}
		e.T = at.Elem
	case *LenExpr:
		at, err := c.expr(e.Arr)
		if err != nil {
			return nil, err
		}
		if at.Kind != TypeArray {
			return nil, errf(e.Line, 1, ".length on non-array type %s", at)
		}
		e.T = typeInt
	case *CallExpr:
		return c.callExpr(e)
	case *NewExpr:
		ci := c.classes[e.Class]
		if ci == nil {
			return nil, errf(e.Line, 1, "unknown class %s", e.Class)
		}
		if ci.ctor == nil {
			if len(e.Args) != 0 {
				return nil, errf(e.Line, 1, "class %s has no constructor taking %d arguments",
					e.Class, len(e.Args))
			}
		} else {
			if err := c.checkArgs(ci.ctor, e.Args, e.Line); err != nil {
				return nil, err
			}
			e.Ref = ci.ctor
		}
		e.T = &Type{Kind: TypeClass, Class: e.Class}
	case *NewArrayExpr:
		if err := c.checkType(e.Elem, e.Line); err != nil {
			return nil, err
		}
		lt, err := c.expr(e.Len)
		if err != nil {
			return nil, err
		}
		if lt.Kind != TypeInt {
			return nil, errf(e.Line, 1, "array length must be int, got %s", lt)
		}
		if e.Elem.Kind == TypeBool {
			return nil, errf(e.Line, 1, "boolean arrays are not supported; use int[]")
		}
		e.T = &Type{Kind: TypeArray, Elem: e.Elem}
	case *UnaryExpr:
		t, err := c.expr(e.X)
		if err != nil {
			return nil, err
		}
		switch e.Op {
		case "-", "~":
			if t.Kind != TypeInt {
				return nil, errf(e.Line, 1, "unary %s expects int, got %s", e.Op, t)
			}
			e.T = typeInt
		case "!":
			if t.Kind != TypeBool {
				return nil, errf(e.Line, 1, "! expects boolean, got %s", t)
			}
			e.T = typeBool
		}
	case *BinaryExpr:
		return c.binaryExpr(e)
	case *InstanceOfExpr:
		t, err := c.expr(e.X)
		if err != nil {
			return nil, err
		}
		if !t.isRef() {
			return nil, errf(e.Line, 1, "instanceof on non-reference type %s", t)
		}
		if c.classes[e.Class] == nil {
			return nil, errf(e.Line, 1, "unknown class %s", e.Class)
		}
		e.T = typeBool
	case *RandExpr:
		if e.Mod != nil {
			if _, ok := e.Mod.(*IntLit); !ok {
				return nil, errf(e.Line, 1, "rand modulus must be an integer literal")
			}
			if _, err := c.expr(e.Mod); err != nil {
				return nil, err
			}
		}
		e.T = typeInt
	default:
		return nil, fmt.Errorf("mj: unknown expression %T", e)
	}
	return e.typ(), nil
}

func (c *checker) callExpr(e *CallExpr) (*Type, error) {
	// Class-qualified static call?
	if id, ok := e.Obj.(*IdentExpr); ok {
		if ci := c.classNamed(id.Name); ci != nil {
			mi := ci.lookupMethod(e.Name)
			if mi == nil {
				return nil, errf(e.Line, 1, "class %s has no method %s", id.Name, e.Name)
			}
			if !mi.decl.Static {
				return nil, errf(e.Line, 1, "%s.%s is not static", id.Name, e.Name)
			}
			e.Obj = nil
			e.Cls = id.Name
			e.Ref = mi
			if err := c.checkArgs(mi, e.Args, e.Line); err != nil {
				return nil, err
			}
			e.T = mi.ret()
			return e.T, nil
		}
	}
	var ci *classInfo
	if e.Obj != nil {
		t, err := c.expr(e.Obj)
		if err != nil {
			return nil, err
		}
		if t.Kind != TypeClass {
			return nil, errf(e.Line, 1, "method call on non-object type %s", t)
		}
		ci = c.classes[t.Class]
	} else {
		ci = c.cls
	}
	mi := ci.lookupMethod(e.Name)
	if mi == nil {
		return nil, errf(e.Line, 1, "class %s has no method %s", ci.decl.Name, e.Name)
	}
	if e.Obj == nil {
		if mi.decl.Static {
			e.Cls = mi.owner.decl.Name
		} else if c.method.decl.Static {
			return nil, errf(e.Line, 1, "cannot call instance method %s from a static context", e.Name)
		}
		// Instance call with implicit this: codegen loads this.
	} else if mi.decl.Static {
		return nil, errf(e.Line, 1, "static method %s called through an instance", e.Name)
	}
	e.Ref = mi
	if err := c.checkArgs(mi, e.Args, e.Line); err != nil {
		return nil, err
	}
	e.T = mi.ret()
	return e.T, nil
}

func (c *checker) checkArgs(mi *methodInfo, args []Expr, line int) error {
	if len(args) != len(mi.decl.Params) {
		return errf(line, 1, "%s.%s expects %d arguments, got %d",
			mi.owner.decl.Name, mi.decl.Name, len(mi.decl.Params), len(args))
	}
	for i, a := range args {
		t, err := c.expr(a)
		if err != nil {
			return err
		}
		if !c.assignable(mi.decl.Params[i].Type, t) {
			return errf(line, 1, "argument %d: cannot pass %s as %s",
				i+1, t, mi.decl.Params[i].Type)
		}
	}
	return nil
}

func (c *checker) binaryExpr(e *BinaryExpr) (*Type, error) {
	lt, err := c.expr(e.L)
	if err != nil {
		return nil, err
	}
	rt, err := c.expr(e.R)
	if err != nil {
		return nil, err
	}
	class := binaryOpOf(e.Op).class
	switch class {
	case logic:
		if lt.Kind != TypeBool || rt.Kind != TypeBool {
			return nil, errf(e.Line, 1, "%s expects booleans, got %s and %s", e.Op, lt, rt)
		}
		e.T = typeBool
	case arith, order:
		if lt.Kind != TypeInt || rt.Kind != TypeInt {
			return nil, errf(e.Line, 1, "%s expects ints, got %s and %s", e.Op, lt, rt)
		}
		e.T = typeInt
		if class == order {
			e.T = typeBool
		}
	case equality:
		ok := (lt.Kind == TypeInt && rt.Kind == TypeInt) ||
			(lt.Kind == TypeBool && rt.Kind == TypeBool) ||
			(lt.isRef() && rt.isRef() &&
				(c.assignable(lt, rt) || c.assignable(rt, lt)))
		if !ok {
			return nil, errf(e.Line, 1, "cannot compare %s and %s", lt, rt)
		}
		e.T = typeBool
	default:
		return nil, errf(e.Line, 1, "unknown operator %s", e.Op)
	}
	return e.T, nil
}
