package bc

import (
	"fmt"
	"sort"
	"sync"
)

// Instr is one bytecode instruction. Operand fields are used according to
// the opcode; unused fields are zero.
type Instr struct {
	Op     Op
	A      int64   // constant, local slot, branch target pc, or modulus
	Cond   Cond    // condition for OpCmp/OpIfCmp/OpIf/OpIfRef/OpIfNull
	Kind   Kind    // element kind for OpNewArray/OpArrayLoad/OpArrayStore
	Class  *Class  // class operand for OpNew/OpInstanceOf/statics
	Field  *Field  // field operand
	Method *Method // method operand
	Line   int     // source line for diagnostics (0 if unknown)
}

// Target returns the branch target pc of a branch or goto instruction.
func (in *Instr) Target() int { return int(in.A) }

// Field describes an instance or static field of a class.
type Field struct {
	Class  *Class // declaring class
	Name   string
	Kind   Kind
	Offset int // index into the object's (or class's statics) field array
	Static bool
}

// QualifiedName returns "Class.name".
func (f *Field) QualifiedName() string { return f.Class.Name + "." + f.Name }

// ExceptionHandler is one exception-table entry of a method. Instructions
// in the pc range [Start, End) are protected: when an exception is raised
// there whose class matches Class — nil matches everything, including
// intrinsic traps such as null dereferences — control transfers to pc
// Handler with the operand stack replaced by the single exception
// reference (null for intrinsic traps caught by a catch-all entry).
// Entries are searched in table order; the first match wins, mirroring the
// JVM's exception_table semantics.
type ExceptionHandler struct {
	Start   int
	End     int
	Handler int
	Class   *Class
}

// Covers reports whether the entry protects pc.
func (h *ExceptionHandler) Covers(pc int) bool { return pc >= h.Start && pc < h.End }

// Method is a bytecode method.
type Method struct {
	Class  *Class
	Name   string
	Params []Kind // parameter kinds, excluding the receiver
	Ret    Kind
	Static bool
	// LocalKinds gives the kind of each local variable slot, including
	// the receiver (slot 0 of instance methods) and the parameters.
	// Local slots are statically typed; a slot is never reused across
	// kinds.
	LocalKinds []Kind
	MaxStack   int // computed by Verify
	Code       []Instr
	// ExceptionTable lists the method's protected regions in match order.
	// Empty for methods without handlers.
	ExceptionTable []ExceptionHandler

	// VSlot is the vtable slot for virtual dispatch, -1 for static and
	// direct-only methods.
	VSlot int

	// ID is a dense program-wide index assigned at link time, used by
	// profilers and the JIT policy to key per-method tables.
	ID int
}

// NumArgs returns the number of stack arguments including the receiver.
func (m *Method) NumArgs() int {
	n := len(m.Params)
	if !m.Static {
		n++
	}
	return n
}

// NumLocals returns the number of local variable slots.
func (m *Method) NumLocals() int { return len(m.LocalKinds) }

// Program returns the linked program m belongs to, nil for a nil or
// unlinked method.
func (m *Method) Program() *Program {
	if m == nil || m.Class == nil {
		return nil
	}
	return m.Class.prog
}

// QualifiedName returns "Class.name".
func (m *Method) QualifiedName() string { return m.Class.Name + "." + m.Name }

// Signature returns a human-readable signature such as
// "Key.equals(ref) int".
func (m *Method) Signature() string {
	s := m.QualifiedName() + "("
	for i, p := range m.Params {
		if i > 0 {
			s += ", "
		}
		s += p.String()
	}
	s += ")"
	if m.Ret != KindVoid {
		s += " " + m.Ret.String()
	}
	return s
}

// Class is a bytecode class: a named record type with single inheritance,
// instance fields (flattened across the hierarchy), static fields, and
// methods with virtual dispatch via a vtable.
type Class struct {
	Name    string
	Super   *Class
	Fields  []*Field // instance fields including inherited, by Offset
	Statics []*Field // static fields declared by this class, by Offset
	Methods []*Method
	VTable  []*Method // virtual dispatch table, indexed by Method.VSlot

	// ID is a dense program-wide index assigned at link time.
	ID int

	prog         *Program // the program that linked the class
	fieldByName  map[string]*Field
	staticByName map[string]*Field
	methodByName map[string]*Method
}

// FieldByName returns the instance field with the given name, or nil.
func (c *Class) FieldByName(name string) *Field { return c.fieldByName[name] }

// StaticByName returns the static field with the given name searching this
// class and its superclasses, or nil.
func (c *Class) StaticByName(name string) *Field {
	for k := c; k != nil; k = k.Super {
		if f := k.staticByName[name]; f != nil {
			return f
		}
	}
	return nil
}

// MethodByName returns the method with the given name searching this class
// and its superclasses, or nil. Methods are identified by name alone (no
// overloading in this bytecode format).
func (c *Class) MethodByName(name string) *Method {
	for k := c; k != nil; k = k.Super {
		if m := k.methodByName[name]; m != nil {
			return m
		}
	}
	return nil
}

// IsSubclassOf reports whether c is k or a subclass of k.
func (c *Class) IsSubclassOf(k *Class) bool {
	for x := c; x != nil; x = x.Super {
		if x == k {
			return true
		}
	}
	return false
}

// NumFields returns the number of instance fields (including inherited).
func (c *Class) NumFields() int { return len(c.Fields) }

// InstanceSize returns the heap size in bytes charged for an instance:
// a 16-byte header plus 8 bytes per field, mirroring a 64-bit JVM layout.
func (c *Class) InstanceSize() int64 { return 16 + 8*int64(len(c.Fields)) }

// ArraySize returns the heap size in bytes charged for an array of n
// elements: a 24-byte header plus 8 bytes per element.
func ArraySize(n int64) int64 { return 24 + 8*n }

// Program is a linked set of classes with an entry point.
type Program struct {
	Classes []*Class
	Methods []*Method // all methods, indexed by Method.ID
	Main    *Method   // entry point: a static method

	classByName map[string]*Class

	// Content fingerprint, computed lazily (see fingerprint.go). Programs
	// are immutable after link, so one computation serves forever.
	fpOnce sync.Once
	fp     uint64
	// Footprint, computed lazily on the same grounds (see Footprint).
	sizeOnce sync.Once
	size     int64
}

// ClassByName returns the class with the given name, or nil.
func (p *Program) ClassByName(name string) *Class { return p.classByName[name] }

// VirtualTargets returns every implementation a virtual call to decl can
// dispatch to under class hierarchy analysis: the distinct occupants of
// decl's vtable slot over the hierarchy rooted at the topmost class that
// declares the slot, in class order. (Receivers from unrelated hierarchies
// would be ill-typed bytecode; the MiniJava front end cannot produce them.)
// It is the one CHA target set: the inliner devirtualizes when it has a single
// element, and escape summaries join over all of them.
func (p *Program) VirtualTargets(decl *Method) []*Method {
	if decl == nil {
		return nil
	}
	root := decl.Class
	for root.Super != nil && decl.VSlot < len(root.Super.VTable) {
		root = root.Super
	}
	var out []*Method
next:
	for _, c := range p.Classes {
		if !c.IsSubclassOf(root) || decl.VSlot >= len(c.VTable) {
			continue
		}
		impl := c.VTable[decl.VSlot]
		if impl == nil {
			continue
		}
		for _, seen := range out {
			if seen == impl {
				continue next
			}
		}
		out = append(out, impl)
	}
	return out
}

// link finalizes the program: assigns IDs, builds lookup maps and vtables,
// and flattens inherited fields. Called by the Assembler.
func (p *Program) link() error {
	p.classByName = make(map[string]*Class, len(p.Classes))
	for _, c := range p.Classes {
		if _, dup := p.classByName[c.Name]; dup {
			return fmt.Errorf("bc: duplicate class %q", c.Name)
		}
		p.classByName[c.Name] = c
	}
	// Topologically order classes so supers are processed first.
	ordered := make([]*Class, 0, len(p.Classes))
	state := make(map[*Class]int) // 0 unseen, 1 visiting, 2 done
	var visit func(c *Class) error
	visit = func(c *Class) error {
		switch state[c] {
		case 1:
			return fmt.Errorf("bc: inheritance cycle through %q", c.Name)
		case 2:
			return nil
		}
		state[c] = 1
		if c.Super != nil {
			if err := visit(c.Super); err != nil {
				return err
			}
		}
		state[c] = 2
		ordered = append(ordered, c)
		return nil
	}
	// Keep a deterministic base order.
	sorted := append([]*Class(nil), p.Classes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, c := range sorted {
		if err := visit(c); err != nil {
			return err
		}
	}
	for id, c := range ordered {
		c.ID = id
		c.prog = p
		if err := c.linkClass(); err != nil {
			return err
		}
	}
	p.Classes = ordered
	p.Methods = p.Methods[:0]
	for _, c := range ordered {
		for _, m := range c.Methods {
			m.ID = len(p.Methods)
			p.Methods = append(p.Methods, m)
		}
	}
	return nil
}

func (c *Class) linkClass() error {
	// Flatten inherited instance fields; the super is already linked.
	var flat []*Field
	if c.Super != nil {
		flat = append(flat, c.Super.Fields...)
	}
	own := c.Fields
	c.fieldByName = make(map[string]*Field)
	for _, f := range flat {
		c.fieldByName[f.Name] = f
	}
	for _, f := range own {
		if f.Class == c { // fields declared here, not yet flattened
			if _, dup := c.fieldByName[f.Name]; dup {
				return fmt.Errorf("bc: class %s redeclares field %s", c.Name, f.Name)
			}
			f.Offset = len(flat)
			flat = append(flat, f)
			c.fieldByName[f.Name] = f
		}
	}
	c.Fields = flat

	c.staticByName = make(map[string]*Field, len(c.Statics))
	for i, f := range c.Statics {
		if _, dup := c.staticByName[f.Name]; dup {
			return fmt.Errorf("bc: class %s redeclares static %s", c.Name, f.Name)
		}
		f.Offset = i
		f.Static = true
		c.staticByName[f.Name] = f
	}

	// Build the vtable: start from the super's, then override/extend.
	c.methodByName = make(map[string]*Method, len(c.Methods))
	if c.Super != nil {
		c.VTable = append([]*Method(nil), c.Super.VTable...)
	}
	for _, m := range c.Methods {
		if _, dup := c.methodByName[m.Name]; dup {
			return fmt.Errorf("bc: class %s redeclares method %s", c.Name, m.Name)
		}
		c.methodByName[m.Name] = m
		m.VSlot = -1
		if m.Static {
			continue
		}
		if c.Super != nil {
			if sm := c.Super.MethodByName(m.Name); sm != nil && sm.VSlot >= 0 {
				if len(sm.Params) != len(m.Params) || sm.Ret != m.Ret {
					return fmt.Errorf("bc: %s overrides %s with a different signature",
						m.QualifiedName(), sm.QualifiedName())
				}
				m.VSlot = sm.VSlot
				c.VTable[m.VSlot] = m
				continue
			}
		}
		m.VSlot = len(c.VTable)
		c.VTable = append(c.VTable, m)
	}
	return nil
}
