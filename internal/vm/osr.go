package vm

import (
	"fmt"
	"sync/atomic"

	"pea/internal/bc"
	"pea/internal/exec"
	"pea/internal/interp"
	"pea/internal/ir"
	"pea/internal/rt"
)

// osrHook is the interpreter's back-edge callback (interp.Interp.OSRHook).
// It fires after the interpreter has taken a backward branch, with f.PC at
// the loop header and count the header's cumulative back-edge count. When
// the header's unit has code installed — whatever the count: code installed
// by an earlier invocation serves every later one from its first back edge
// — or the tier-up ladder produces some now, the hook transfers the live
// interpreter frame into it and finishes the invocation in compiled code.
// Otherwise the interpreter keeps looping.
func (vm *VM) osrHook(f *interp.Frame, count int64) (rt.Value, bool, error) {
	u := vm.unit(f.Method, f.PC)
	c := u.installed()
	if c == nil {
		c = vm.tierUp(u, count)
	}
	if c == nil {
		return rt.Value{}, false, nil
	}
	return vm.enterOSR(f, c)
}

// enterOSR transfers the interpreter frame f into the OSR graph g and runs
// it to completion. The argument vector follows the OSR parameter
// convention (see build.BuildOSR): locals occupy slots [0, NumLocals) and
// operand-stack values follow at NumLocals+depth, so OpParam's AuxInt
// indexes it directly. The returned value is the whole invocation's result:
// the compiled code runs from the loop header through the method's return
// (or deoptimizes back into a fresh interpreter frame, which the deopt
// runtime resumes transparently).
func (vm *VM) enterOSR(f *interp.Frame, c exec.Code) (rt.Value, bool, error) {
	if bci := c.Graph().OSREntryBCI; bci != f.PC {
		return rt.Value{}, false, fmt.Errorf("vm: OSR graph for %s entered at bci %d, frame at %d",
			f.Method.QualifiedName(), bci, f.PC)
	}
	args := make([]rt.Value, f.Method.NumLocals()+len(f.Stack))
	copy(args, f.Locals)
	copy(args[f.Method.NumLocals():], f.Stack)
	atomic.AddInt64(&vm.stats.OSREntries, 1)
	vm.Opts.Sink.VMOSREnter(f.Method, f.PC)
	ret, err := c.Run(vm.Engine, args)
	if err != nil {
		return rt.Value{}, false, err
	}
	return ret, true, nil
}

// OSRGraph returns the scheduled graph behind the installed OSR code for
// (m, entryBCI), or nil. Safe to call concurrently with compilation;
// exposed for tests and tools.
func (vm *VM) OSRGraph(m *bc.Method, entryBCI int) *ir.Graph {
	if c := vm.unit(m, entryBCI).installed(); c != nil {
		return c.Graph()
	}
	return nil
}
