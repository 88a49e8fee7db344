package bc

import "unsafe"

// Footprint estimates the heap bytes the linked program occupies: every
// class with its field, method and vtable tables and name maps, every field,
// and every method with its signature, local kinds, bytecode and exception
// table. It is an estimate, not a measurement: allocator rounding is
// ignored and a map entry is costed at a flat mapEntryBytes. The code cache
// charges it to each artifact compiled from the program (a graph reaches
// the whole program through its methods).
//
// Like the fingerprint, it is computed once per program (programs are
// immutable after link) and cached. A nil program occupies nothing.
func (p *Program) Footprint() int64 {
	if p == nil {
		return 0
	}
	p.sizeOnce.Do(func() { p.size = p.computeFootprint() })
	return p.size
}

// mapEntryBytes is the flat cost of one entry of a name-keyed lookup map:
// the string header and value pointer plus the map's per-slot overhead.
const mapEntryBytes = 48

func (p *Program) computeFootprint() int64 {
	const ptr = int64(unsafe.Sizeof(uintptr(0)))
	n := int64(unsafe.Sizeof(*p)) + ptr*int64(cap(p.Classes)+cap(p.Methods)) +
		mapEntryBytes*int64(len(p.classByName))
	for _, c := range p.Classes {
		n += int64(unsafe.Sizeof(*c)) + int64(len(c.Name)) +
			ptr*int64(cap(c.Fields)+cap(c.Statics)+cap(c.Methods)+cap(c.VTable)) +
			mapEntryBytes*int64(len(c.fieldByName)+len(c.staticByName)+len(c.methodByName))
		for _, f := range c.Fields {
			if f.Class == c { // inherited fields are counted by their declaring class
				n += int64(unsafe.Sizeof(*f)) + int64(len(f.Name))
			}
		}
		for _, f := range c.Statics {
			n += int64(unsafe.Sizeof(*f)) + int64(len(f.Name))
		}
		for _, m := range c.Methods {
			n += int64(unsafe.Sizeof(*m)) + int64(len(m.Name)) +
				int64(cap(m.Params)+cap(m.LocalKinds)) +
				int64(unsafe.Sizeof(Instr{}))*int64(cap(m.Code)) +
				int64(unsafe.Sizeof(ExceptionHandler{}))*int64(cap(m.ExceptionTable))
		}
	}
	return n
}
