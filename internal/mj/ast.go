package mj

// Type is a MiniJava static type.
type Type struct {
	// Kind discriminates the type.
	Kind TypeKind
	// Class is the class name for TypeClass.
	Class string
	// Elem is the element type for TypeArray.
	Elem *Type
}

// TypeKind enumerates MiniJava types.
type TypeKind uint8

// Type kinds.
const (
	TypeVoid TypeKind = iota
	TypeInt
	TypeBool
	TypeClass
	TypeArray
	TypeNull // the type of the null literal
)

// String renders the type in source syntax.
func (t *Type) String() string {
	switch t.Kind {
	case TypeVoid:
		return "void"
	case TypeInt:
		return "int"
	case TypeBool:
		return "boolean"
	case TypeClass:
		return t.Class
	case TypeArray:
		return t.Elem.String() + "[]"
	case TypeNull:
		return "null"
	default:
		return "?"
	}
}

// isRef reports whether values of the type are references.
func (t *Type) isRef() bool {
	return t.Kind == TypeClass || t.Kind == TypeArray || t.Kind == TypeNull
}

var (
	typeVoid = &Type{Kind: TypeVoid}
	typeInt  = &Type{Kind: TypeInt}
	typeBool = &Type{Kind: TypeBool}
	typeNull = &Type{Kind: TypeNull}
)

// File is a parsed compilation unit.
type File struct {
	Classes []*ClassDecl
}

// ClassDecl declares a class.
type ClassDecl struct {
	Name    string
	Extends string // "" for none
	Fields  []*FieldDecl
	Methods []*MethodDecl
	Line    int
}

// FieldDecl declares an instance or static field.
type FieldDecl struct {
	Name   string
	Type   *Type
	Static bool
	Line   int
}

// MethodDecl declares a method or constructor (Name == class name,
// Ret == nil).
type MethodDecl struct {
	Name   string
	Ret    *Type // nil for constructors
	Params []Param
	Static bool
	Body   []Stmt
	Line   int
	IsCtor bool
}

// Param is a method parameter.
type Param struct {
	Name string
	Type *Type
}

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// VarDeclStmt declares a local variable with an initializer.
type VarDeclStmt struct {
	Name string
	Type *Type
	Init Expr
	Line int
	// Binding is the checker-resolved local variable.
	Binding any
}

// AssignStmt assigns to a variable, field, or array element.
type AssignStmt struct {
	Target Expr // IdentExpr, FieldExpr, or IndexExpr
	Value  Expr
	// Compound marks x op= y, x++ and x--: Value is a BinaryExpr whose left
	// operand is Target itself, and codegen evaluates Target's object or
	// array and index once.
	Compound bool
	Line     int
}

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt
	Line int
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body []Stmt
	Line int
}

// ForStmt is a C-style for loop.
type ForStmt struct {
	Init Stmt // may be nil
	Cond Expr // may be nil (infinite)
	Post Stmt // may be nil
	Body []Stmt
	Line int
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Line int }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Line int }

// ReturnStmt returns from the method.
type ReturnStmt struct {
	Value Expr // nil for void
	Line  int
}

// ExprStmt evaluates an expression for its effects (calls).
type ExprStmt struct {
	X    Expr
	Line int
}

// PrintStmt is the print(e) intrinsic.
type PrintStmt struct {
	X    Expr
	Line int
}

// SyncStmt is synchronized (e) { body }.
type SyncStmt struct {
	Lock Expr
	Body []Stmt
	Line int
}

// ThrowStmt aborts execution with an exception object.
type ThrowStmt struct {
	X    Expr
	Line int
}

// TryStmt is try { } catch (C e) { } ... finally { }. At least one catch
// clause or a finally block is present.
type TryStmt struct {
	Body    []Stmt
	Catches []*CatchClause
	Finally []Stmt // nil when absent
	Line    int
}

// CatchClause handles exceptions of one class (and its subclasses),
// binding the caught object to a fresh local.
type CatchClause struct {
	Class   string
	Name    string
	Body    []Stmt
	Line    int
	Binding any // *localVar resolved by the checker
}

// BlockStmt is a nested { } scope.
type BlockStmt struct {
	Body []Stmt
	Line int
}

func (*VarDeclStmt) stmtNode()  {}
func (*AssignStmt) stmtNode()   {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()      {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*ReturnStmt) stmtNode()   {}
func (*ExprStmt) stmtNode()     {}
func (*PrintStmt) stmtNode()    {}
func (*SyncStmt) stmtNode()     {}
func (*ThrowStmt) stmtNode()    {}
func (*TryStmt) stmtNode()      {}
func (*BlockStmt) stmtNode()    {}

// Expr is an expression node. The checker fills in T.
type Expr interface {
	exprNode()
	typ() *Type
}

type exprBase struct{ T *Type }

func (e *exprBase) typ() *Type { return e.T }

// IntLit is an integer literal.
type IntLit struct {
	exprBase
	Val  int64
	Line int
}

// BoolLit is true/false.
type BoolLit struct {
	exprBase
	Val  bool
	Line int
}

// NullLit is null.
type NullLit struct {
	exprBase
	Line int
}

// ThisExpr is this.
type ThisExpr struct {
	exprBase
	Line int
}

// IdentExpr names a local, parameter, field of this, or static field of the
// enclosing class; the checker resolves Binding.
type IdentExpr struct {
	exprBase
	Name    string
	Line    int
	Binding any // *localVar, *fieldRef resolved by the checker
}

// FieldExpr is obj.f or ClassName.f (static); Static resolved by checker.
type FieldExpr struct {
	exprBase
	Obj  Expr   // nil when Obj was a class name (static access)
	Cls  string // class name for static access
	Name string
	Line int
	Ref  any // *fieldRef
}

// IndexExpr is a[i].
type IndexExpr struct {
	exprBase
	Arr  Expr
	Idx  Expr
	Line int
}

// LenExpr is a.length.
type LenExpr struct {
	exprBase
	Arr  Expr
	Line int
}

// CallExpr is obj.m(args), m(args) (implicit this/static), or
// ClassName.m(args).
type CallExpr struct {
	exprBase
	Obj  Expr   // nil for implicit receiver or static calls
	Cls  string // class name for qualified static calls
	Name string
	Args []Expr
	Line int
	Ref  any // *methodRef
}

// NewExpr is new C(args).
type NewExpr struct {
	exprBase
	Class string
	Args  []Expr
	Line  int
	Ref   any
}

// NewArrayExpr is new T[len].
type NewArrayExpr struct {
	exprBase
	Elem *Type
	Len  Expr
	Line int
}

// UnaryExpr is -x or !x or ~x.
type UnaryExpr struct {
	exprBase
	Op   string
	X    Expr
	Line int
}

// BinaryExpr is a binary operation, including short-circuit && and ||.
type BinaryExpr struct {
	exprBase
	Op   string
	L, R Expr
	Line int
}

// InstanceOfExpr is e instanceof C.
type InstanceOfExpr struct {
	exprBase
	X     Expr
	Class string
	Line  int
}

// RandExpr is rand(mod), the deterministic PRNG intrinsic.
type RandExpr struct {
	exprBase
	Mod  Expr // must be a constant expression; 0 disables reduction
	Line int
}

func (*IntLit) exprNode()         {}
func (*BoolLit) exprNode()        {}
func (*NullLit) exprNode()        {}
func (*ThisExpr) exprNode()       {}
func (*IdentExpr) exprNode()      {}
func (*FieldExpr) exprNode()      {}
func (*IndexExpr) exprNode()      {}
func (*LenExpr) exprNode()        {}
func (*CallExpr) exprNode()       {}
func (*NewExpr) exprNode()        {}
func (*NewArrayExpr) exprNode()   {}
func (*UnaryExpr) exprNode()      {}
func (*BinaryExpr) exprNode()     {}
func (*InstanceOfExpr) exprNode() {}
func (*RandExpr) exprNode()       {}
