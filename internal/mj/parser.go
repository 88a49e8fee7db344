package mj

import (
	"math"

	"pea/internal/bc"
)

// maxDepth bounds how deeply the AST of a source file may nest. The parser,
// the checker and the code generator all walk the tree recursively, so this
// bound is what keeps hostile source — a few hundred thousand parentheses
// fit in a megabyte — from overflowing the goroutine stack: deeper source
// is a compile error. Every statement and expression counts one level, and
// so does every link of a left-deep chain (a+b+c, a.f.g, a[i][j], int[][]),
// which the parser reads with a loop but the walks recurse through.
const maxDepth = 1000

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []token
	pos  int
	// depth is the nesting level of the construct being parsed; reach is
	// the deepest level a node of the subtree being measured sits at.
	depth, reach int
}

// Parse parses MiniJava source into an AST.
func Parse(src string) (*File, error) {
	toks, err := lexAll(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	f := &File{}
	for !p.at(tokEOF, "") {
		cd, err := p.classDecl()
		if err != nil {
			return nil, err
		}
		f.Classes = append(f.Classes, cd)
	}
	return f, nil
}

// enter descends one nesting level; leave climbs back.
func (p *parser) enter() error {
	p.depth++
	p.reach = max(p.reach, p.depth)
	return p.bounded()
}

func (p *parser) leave() { p.depth-- }

// subtree starts measuring a subtree rooted at the current level and
// returns the enclosing measurement, which done folds the subtree into:
// defer p.done(p.subtree()).
func (p *parser) subtree() (outer int) {
	outer, p.reach = p.reach, p.depth
	return outer
}

func (p *parser) done(outer int) { p.reach = max(outer, p.reach) }

// link records a node put on top of the subtree measured so far: every node
// under it sits one level deeper.
func (p *parser) link() error {
	p.reach++
	return p.bounded()
}

func (p *parser) bounded() error {
	if p.reach > maxDepth {
		t := p.cur()
		return errf(t.line, t.col, "nesting deeper than %d levels", maxDepth)
	}
	return nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) peek() token { return p.toks[min(p.pos+1, len(p.toks)-1)] }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	t := p.cur()
	if !p.at(kind, text) {
		want := text
		if want == "" {
			switch kind {
			case tokIdent:
				want = "identifier"
			case tokInt:
				want = "integer"
			}
		}
		return t, errf(t.line, t.col, "expected %q, found %s", want, t)
	}
	p.pos++
	return t, nil
}

func (p *parser) classDecl() (*ClassDecl, error) {
	kw, err := p.expect(tokKeyword, "class")
	if err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	cd := &ClassDecl{Name: name.text, Line: kw.line}
	if p.accept(tokKeyword, "extends") {
		sup, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		cd.Extends = sup.text
	}
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	for !p.accept(tokPunct, "}") {
		if err := p.member(cd); err != nil {
			return nil, err
		}
	}
	return cd, nil
}

// member parses one field, method, or constructor declaration.
func (p *parser) member(cd *ClassDecl) error {
	start := p.cur()
	static := p.accept(tokKeyword, "static")

	// Constructor: ClassName "(" ...
	if !static && p.at(tokIdent, cd.Name) && p.peek().kind == tokPunct && p.peek().text == "(" {
		p.pos++
		md := &MethodDecl{Name: "<init>", IsCtor: true, Line: start.line}
		if err := p.methodRest(md); err != nil {
			return err
		}
		cd.Methods = append(cd.Methods, md)
		return nil
	}

	var ret *Type
	if p.accept(tokKeyword, "void") {
		ret = typeVoid
	} else {
		t, err := p.parseType()
		if err != nil {
			return err
		}
		ret = t
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return err
	}
	if p.at(tokPunct, "(") {
		md := &MethodDecl{Name: name.text, Ret: ret, Static: static, Line: start.line}
		if err := p.methodRest(md); err != nil {
			return err
		}
		cd.Methods = append(cd.Methods, md)
		return nil
	}
	if ret.Kind == TypeVoid {
		return errf(name.line, name.col, "field %s cannot have type void", name.text)
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return err
	}
	cd.Fields = append(cd.Fields, &FieldDecl{Name: name.text, Type: ret, Static: static, Line: start.line})
	return nil
}

func (p *parser) methodRest(md *MethodDecl) error {
	if _, err := p.expect(tokPunct, "("); err != nil {
		return err
	}
	for !p.accept(tokPunct, ")") {
		if len(md.Params) > 0 {
			if _, err := p.expect(tokPunct, ","); err != nil {
				return err
			}
		}
		t, err := p.parseType()
		if err != nil {
			return err
		}
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return err
		}
		md.Params = append(md.Params, Param{Name: name.text, Type: t})
	}
	body, err := p.block()
	if err != nil {
		return err
	}
	md.Body = body
	return nil
}

// parseType parses int | boolean | Ident with trailing [].
func (p *parser) parseType() (*Type, error) {
	var t *Type
	switch {
	case p.accept(tokKeyword, "int"):
		t = typeInt
	case p.accept(tokKeyword, "boolean"):
		t = typeBool
	case p.cur().kind == tokIdent:
		t = &Type{Kind: TypeClass, Class: p.cur().text}
		p.pos++
	default:
		c := p.cur()
		return nil, errf(c.line, c.col, "expected a type, found %s", c)
	}
	defer p.done(p.subtree())
	for p.at(tokPunct, "[") && p.peek().text == "]" {
		p.pos += 2
		t = &Type{Kind: TypeArray, Elem: t}
		if err := p.link(); err != nil {
			return nil, err
		}
	}
	return t, nil
}

func (p *parser) block() ([]Stmt, error) {
	if _, err := p.expect(tokPunct, "{"); err != nil {
		return nil, err
	}
	var out []Stmt
	for !p.accept(tokPunct, "}") {
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// startsVarDecl decides between a declaration and an expression statement.
func (p *parser) startsVarDecl() bool {
	t := p.cur()
	if t.kind == tokKeyword && (t.text == "int" || t.text == "boolean") {
		return true
	}
	if t.kind != tokIdent {
		return false
	}
	// Ident Ident  -> decl;  Ident "[" "]" -> array-typed decl.
	n := p.peek()
	if n.kind == tokIdent {
		return true
	}
	if n.kind == tokPunct && n.text == "[" {
		nn := p.toks[min(p.pos+2, len(p.toks)-1)]
		return nn.kind == tokPunct && nn.text == "]"
	}
	return false
}

func (p *parser) stmt() (Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	t := p.cur()
	switch {
	case p.at(tokPunct, "{"):
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &BlockStmt{Body: body, Line: t.line}, nil
	case p.at(tokKeyword, "if"):
		return p.ifStmt()
	case p.at(tokKeyword, "while"):
		return p.whileStmt()
	case p.at(tokKeyword, "for"):
		return p.forStmt()
	case p.accept(tokKeyword, "break"):
		_, err := p.expect(tokPunct, ";")
		return &BreakStmt{Line: t.line}, err
	case p.accept(tokKeyword, "continue"):
		_, err := p.expect(tokPunct, ";")
		return &ContinueStmt{Line: t.line}, err
	case p.accept(tokKeyword, "return"):
		if p.accept(tokPunct, ";") {
			return &ReturnStmt{Line: t.line}, nil
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
		return &ReturnStmt{Value: e, Line: t.line}, nil
	case p.accept(tokKeyword, "print"):
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
		return &PrintStmt{X: e, Line: t.line}, nil
	case p.accept(tokKeyword, "synchronized"):
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		lock, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		body, err := p.block()
		if err != nil {
			return nil, err
		}
		return &SyncStmt{Lock: lock, Body: body, Line: t.line}, nil
	case p.accept(tokKeyword, "throw"):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
		return &ThrowStmt{X: e, Line: t.line}, nil
	case p.at(tokKeyword, "try"):
		return p.tryStmt()
	case p.startsVarDecl():
		s, err := p.varDecl()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
		return s, nil
	default:
		s, err := p.simpleStmt()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ";"); err != nil {
			return nil, err
		}
		return s, nil
	}
}

func (p *parser) varDecl() (Stmt, error) {
	t := p.cur()
	typ, err := p.parseType()
	if err != nil {
		return nil, err
	}
	name, err := p.expect(tokIdent, "")
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, "="); err != nil {
		return nil, err
	}
	init, err := p.expr()
	if err != nil {
		return nil, err
	}
	return &VarDeclStmt{Name: name.text, Type: typ, Init: init, Line: t.line}, nil
}

// simpleStmt parses an assignment, compound assignment, ++/--, or a bare
// expression statement (without the trailing semicolon).
func (p *parser) simpleStmt() (Stmt, error) {
	t := p.cur()
	lhs, err := p.expr()
	if err != nil {
		return nil, err
	}
	cur := p.cur()
	if cur.kind == tokPunct {
		switch cur.text {
		case "=":
			p.pos++
			rhs, err := p.expr()
			if err != nil {
				return nil, err
			}
			return &AssignStmt{Target: lhs, Value: rhs, Line: t.line}, nil
		case "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>=":
			p.pos++
			rhs, err := p.expr()
			if err != nil {
				return nil, err
			}
			op := cur.text[:len(cur.text)-1]
			return &AssignStmt{
				Target:   lhs,
				Value:    &BinaryExpr{Op: op, L: lhs, R: rhs, Line: cur.line},
				Compound: true,
				Line:     t.line,
			}, nil
		case "++", "--":
			p.pos++
			op := "+"
			if cur.text == "--" {
				op = "-"
			}
			one := &IntLit{Val: 1, Line: cur.line}
			return &AssignStmt{
				Target:   lhs,
				Value:    &BinaryExpr{Op: op, L: lhs, R: one, Line: cur.line},
				Compound: true,
				Line:     t.line,
			}, nil
		}
	}
	return &ExprStmt{X: lhs, Line: t.line}, nil
}

func (p *parser) tryStmt() (Stmt, error) {
	t, _ := p.expect(tokKeyword, "try")
	body, err := p.block()
	if err != nil {
		return nil, err
	}
	ts := &TryStmt{Body: body, Line: t.line}
	for p.at(tokKeyword, "catch") {
		ct := p.cur()
		p.pos++
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		cls, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		name, err := p.expect(tokIdent, "")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		cbody, err := p.block()
		if err != nil {
			return nil, err
		}
		ts.Catches = append(ts.Catches, &CatchClause{
			Class: cls.text, Name: name.text, Body: cbody, Line: ct.line,
		})
	}
	if p.accept(tokKeyword, "finally") {
		fin, err := p.block()
		if err != nil {
			return nil, err
		}
		if fin == nil {
			fin = []Stmt{}
		}
		ts.Finally = fin
	}
	if len(ts.Catches) == 0 && ts.Finally == nil {
		return nil, errf(t.line, t.col, "try needs at least one catch clause or a finally block")
	}
	return ts, nil
}

func (p *parser) ifStmt() (Stmt, error) {
	t, _ := p.expect(tokKeyword, "if")
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	thenB, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	var elseB []Stmt
	if p.accept(tokKeyword, "else") {
		elseB, err = p.stmtAsBlock()
		if err != nil {
			return nil, err
		}
	}
	return &IfStmt{Cond: cond, Then: thenB, Else: elseB, Line: t.line}, nil
}

func (p *parser) stmtAsBlock() ([]Stmt, error) {
	if p.at(tokPunct, "{") {
		return p.block()
	}
	s, err := p.stmt()
	if err != nil {
		return nil, err
	}
	return []Stmt{s}, nil
}

func (p *parser) whileStmt() (Stmt, error) {
	t, _ := p.expect(tokKeyword, "while")
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	cond, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	return &WhileStmt{Cond: cond, Body: body, Line: t.line}, nil
}

func (p *parser) forStmt() (Stmt, error) {
	t, _ := p.expect(tokKeyword, "for")
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var init, post Stmt
	var cond Expr
	var err error
	if !p.at(tokPunct, ";") {
		if p.startsVarDecl() {
			init, err = p.varDecl()
		} else {
			init, err = p.simpleStmt()
		}
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.at(tokPunct, ";") {
		cond, err = p.expr()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokPunct, ";"); err != nil {
		return nil, err
	}
	if !p.at(tokPunct, ")") {
		post, err = p.simpleStmt()
		if err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokPunct, ")"); err != nil {
		return nil, err
	}
	body, err := p.stmtAsBlock()
	if err != nil {
		return nil, err
	}
	return &ForStmt{Init: init, Cond: cond, Post: post, Body: body, Line: t.line}, nil
}

// Expression parsing with Java-like precedence.

// An opClass is what a binary operator takes and gives.
type opClass uint8

const (
	logic    opClass = iota + 1 // booleans to boolean, short-circuit
	arith                       // ints to int, by the entry's bc.Op
	order                       // ints to boolean, by the entry's bc.Cond
	equality                    // two ints, booleans or references to boolean, by the entry's bc.Cond
	typeTest                    // instanceof: a class name, not an operand, on the right
)

// A binaryOp is one binary operator: how tightly it binds (a higher prec
// binds tighter; every level associates to the left), what it takes and
// what it emits.
type binaryOp struct {
	text  string
	prec  int
	class opClass
	op    bc.Op
	cond  bc.Cond
}

// binaryOps is every binary operator of MiniJava. The parser, the checker
// and codegen all read it. Precedence starts at 1: the zero binaryOp, which
// binaryOpOf returns for any other token, binds looser than every level.
var binaryOps = []binaryOp{
	{text: "||", prec: 1, class: logic},
	{text: "&&", prec: 2, class: logic},
	{text: "|", prec: 3, class: arith, op: bc.OpOr},
	{text: "^", prec: 4, class: arith, op: bc.OpXor},
	{text: "&", prec: 5, class: arith, op: bc.OpAnd},
	{text: "==", prec: 6, class: equality, cond: bc.CondEQ},
	{text: "!=", prec: 6, class: equality, cond: bc.CondNE},
	{text: "<", prec: 7, class: order, cond: bc.CondLT},
	{text: "<=", prec: 7, class: order, cond: bc.CondLE},
	{text: ">", prec: 7, class: order, cond: bc.CondGT},
	{text: ">=", prec: 7, class: order, cond: bc.CondGE},
	{text: "instanceof", prec: 7, class: typeTest},
	{text: "<<", prec: 8, class: arith, op: bc.OpShl},
	{text: ">>", prec: 8, class: arith, op: bc.OpShr},
	{text: ">>>", prec: 8, class: arith, op: bc.OpUShr},
	{text: "+", prec: 9, class: arith, op: bc.OpAdd},
	{text: "-", prec: 9, class: arith, op: bc.OpSub},
	{text: "*", prec: 10, class: arith, op: bc.OpMul},
	{text: "/", prec: 10, class: arith, op: bc.OpDiv},
	{text: "%", prec: 10, class: arith, op: bc.OpRem},
}

// binaryOpOf returns the operator spelled text, or the zero binaryOp.
func binaryOpOf(text string) binaryOp {
	for i := range binaryOps {
		if binaryOps[i].text == text {
			return binaryOps[i]
		}
	}
	return binaryOp{}
}

func (p *parser) expr() (Expr, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	defer p.leave()
	return p.binary(1)
}

// binary parses a unary expression followed by every binary operator that
// binds at least as tightly as minPrec, by precedence climbing: the right
// operand of an operator is parsed at the next tighter level, so an
// operator of the same level folds into the left operand. Each
// BinaryExpr is one link of the depth bound.
func (p *parser) binary(minPrec int) (Expr, error) {
	defer p.done(p.subtree())
	l, err := p.unaryExpr()
	if err != nil {
		return nil, err
	}
	// ceiling is the tightest operator that may take l as its left
	// operand. It is the last operator combined, and one level looser
	// after an instanceof: only a looser operator may follow instanceof.
	ceiling := math.MaxInt
	for {
		t := p.cur()
		op := binaryOpOf(t.text)
		if op.prec < minPrec || op.prec > ceiling {
			return l, nil
		}
		p.pos++
		if op.class == typeTest {
			cls, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			l = &InstanceOfExpr{X: l, Class: cls.text, Line: t.line}
			ceiling = op.prec - 1
			continue
		}
		r, err := p.binary(op.prec + 1)
		if err != nil {
			return nil, err
		}
		l = &BinaryExpr{Op: op.text, L: l, R: r, Line: t.line}
		if err := p.link(); err != nil {
			return nil, err
		}
		ceiling = op.prec
	}
}

func (p *parser) unaryExpr() (Expr, error) {
	t := p.cur()
	if t.kind == tokPunct && (t.text == "-" || t.text == "!" || t.text == "~") {
		p.pos++
		if err := p.enter(); err != nil {
			return nil, err
		}
		defer p.leave()
		x, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: t.text, X: x, Line: t.line}, nil
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (Expr, error) {
	defer p.done(p.subtree())
	e, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.at(tokPunct, "."):
			p.pos++
			name, err := p.expect(tokIdent, "")
			if err != nil {
				return nil, err
			}
			if p.at(tokPunct, "(") {
				args, err := p.args()
				if err != nil {
					return nil, err
				}
				e = &CallExpr{Obj: e, Name: name.text, Args: args, Line: name.line}
			} else if name.text == "length" {
				e = &LenExpr{Arr: e, Line: name.line}
			} else {
				e = &FieldExpr{Obj: e, Name: name.text, Line: name.line}
			}
		case p.at(tokPunct, "["):
			line := p.cur().line
			p.pos++
			idx, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokPunct, "]"); err != nil {
				return nil, err
			}
			e = &IndexExpr{Arr: e, Idx: idx, Line: line}
		default:
			return e, nil
		}
		if err := p.link(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) args() ([]Expr, error) {
	if _, err := p.expect(tokPunct, "("); err != nil {
		return nil, err
	}
	var out []Expr
	for !p.accept(tokPunct, ")") {
		if len(out) > 0 {
			if _, err := p.expect(tokPunct, ","); err != nil {
				return nil, err
			}
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
	}
	return out, nil
}

func (p *parser) primaryExpr() (Expr, error) {
	t := p.cur()
	switch {
	case t.kind == tokInt:
		p.pos++
		return &IntLit{Val: t.val, Line: t.line}, nil
	case p.accept(tokKeyword, "true"):
		return &BoolLit{Val: true, Line: t.line}, nil
	case p.accept(tokKeyword, "false"):
		return &BoolLit{Val: false, Line: t.line}, nil
	case p.accept(tokKeyword, "null"):
		return &NullLit{Line: t.line}, nil
	case p.accept(tokKeyword, "this"):
		return &ThisExpr{Line: t.line}, nil
	case p.accept(tokKeyword, "rand"):
		if _, err := p.expect(tokPunct, "("); err != nil {
			return nil, err
		}
		var mod Expr
		if !p.at(tokPunct, ")") {
			m, err := p.expr()
			if err != nil {
				return nil, err
			}
			mod = m
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return &RandExpr{Mod: mod, Line: t.line}, nil
	case p.accept(tokKeyword, "new"):
		return p.newExpr(t)
	case p.accept(tokPunct, "("):
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, ")"); err != nil {
			return nil, err
		}
		return e, nil
	case t.kind == tokIdent:
		p.pos++
		// Ident "(" -> unqualified call; Ident "." handled by postfix
		// except for static access Class.member, which the checker
		// resolves from an IdentExpr base.
		if p.at(tokPunct, "(") {
			args, err := p.args()
			if err != nil {
				return nil, err
			}
			return &CallExpr{Name: t.text, Args: args, Line: t.line}, nil
		}
		return &IdentExpr{Name: t.text, Line: t.line}, nil
	default:
		return nil, errf(t.line, t.col, "expected an expression, found %s", t)
	}
}

func (p *parser) newExpr(t token) (Expr, error) {
	elem, err := p.parseTypeNoArray()
	if err != nil {
		return nil, err
	}
	if p.at(tokPunct, "[") {
		p.pos++
		ln, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokPunct, "]"); err != nil {
			return nil, err
		}
		// Java-style multi-dimensional allocation: new T[n][] allocates
		// an array of n references to T[] (initialized to null).
		for p.at(tokPunct, "[") && p.peek().text == "]" {
			p.pos += 2
			elem = &Type{Kind: TypeArray, Elem: elem}
			if err := p.link(); err != nil {
				return nil, err
			}
		}
		return &NewArrayExpr{Elem: elem, Len: ln, Line: t.line}, nil
	}
	if elem.Kind != TypeClass {
		return nil, errf(t.line, t.col, "cannot instantiate %s", elem)
	}
	args, err := p.args()
	if err != nil {
		return nil, err
	}
	return &NewExpr{Class: elem.Class, Args: args, Line: t.line}, nil
}

func (p *parser) parseTypeNoArray() (*Type, error) {
	switch {
	case p.accept(tokKeyword, "int"):
		return typeInt, nil
	case p.accept(tokKeyword, "boolean"):
		return typeBool, nil
	case p.cur().kind == tokIdent:
		t := &Type{Kind: TypeClass, Class: p.cur().text}
		p.pos++
		return t, nil
	}
	c := p.cur()
	return nil, errf(c.line, c.col, "expected a type, found %s", c)
}
