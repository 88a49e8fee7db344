package vm

import (
	"fmt"
	"sync/atomic"

	"pea/internal/bc"
	"pea/internal/exec"
	"pea/internal/interp"
	"pea/internal/ir"
	"pea/internal/obs/flight"
	"pea/internal/rt"
)

// osrSite identifies one on-stack-replacement entry point: a loop header
// (by bytecode index) inside a method.
type osrSite struct {
	m   *bc.Method
	bci int
}

// osrHook is the interpreter's back-edge callback (interp.Interp.OSRHook).
// It fires after the interpreter has taken a backward branch, with f.PC at
// the loop header and count the header's cumulative back-edge count. When an
// OSR graph for (f.Method, f.PC) is installed, the hook transfers the live
// interpreter frame into it and finishes the invocation in compiled code —
// whatever the count: code installed by an earlier invocation serves every
// later one from its first back edge. Otherwise the header's first back
// edge asks the broker's memory tier for a non-speculative artifact (see
// warmInstall), and once count crosses the threshold the hook submits an
// OSR compile to the broker and lets the interpreter continue (async mode)
// or enters the freshly installed code immediately (sync mode). Below the
// threshold the hook takes no lock.
func (vm *VM) osrHook(f *interp.Frame, count int64) (rt.Value, bool, error) {
	site := osrSite{f.Method, f.PC}
	if c := vm.osrInstalled(site); c != nil {
		return vm.enterOSR(f, c)
	}
	if count == 1 && !vm.speculates(f.Method) && vm.warmInstall(f.Method, f.PC) {
		return vm.enterOSR(f, vm.osrInstalled(site))
	}
	if count < vm.Opts.OSRThreshold {
		return rt.Value{}, false, nil
	}
	if vm.hasFailed[f.Method.ID].Load() || vm.osrHasFailed(site) {
		return rt.Value{}, false, nil
	}
	if vm.osrBackedOff(site, count) {
		return rt.Value{}, false, nil // transient failure/rejection backoff
	}
	if vm.jit.Pending(f.Method, f.PC) {
		return rt.Value{}, false, nil // compile in flight; keep looping interpreted
	}
	atomic.AddInt64(&vm.VMStats.OSRRequests, 1)
	vm.flight.Record(flight.KindOSRRequest, int32(f.Method.ID), int32(f.PC), count, 0, 0)
	if s := vm.Opts.Sink; s != nil {
		s.VMOSRRequest(f.Method.QualifiedName(), f.PC, int(count))
	}
	if !vm.jit.Submit(f.Method, count, vm.cacheKey(f.Method, f.PC), &vm.hooks) {
		// Rejected (queue full, closing, or a racing duplicate): re-arm
		// this entry point's trigger with backoff instead of resubmitting
		// on every back edge.
		vm.rearmOSR(f.Method, f.PC, "submit-rejected")
	}
	// A synchronous broker has installed (or failed) the artifact by now;
	// an asynchronous one publishes later and this lookup stays nil.
	if c := vm.osrInstalled(site); c != nil {
		return vm.enterOSR(f, c)
	}
	return rt.Value{}, false, nil
}

// osrInstalled returns the installed OSR code for site (nil if none),
// without locking.
func (vm *VM) osrInstalled(site osrSite) exec.Code {
	if codes := vm.osrCode.Load(); codes != nil {
		return (*codes)[site]
	}
	return nil
}

// osrBackedOff reports whether site is inside a transient-failure backoff
// window: re-armed sites become submit-eligible again only once the loop
// header's back-edge count reaches the re-arm target.
func (vm *VM) osrBackedOff(site osrSite, count int64) bool {
	vm.osrMu.Lock()
	defer vm.osrMu.Unlock()
	return vm.osrRetryAt[site] > count
}

// osrHasFailed reports whether an OSR compile for site failed permanently.
func (vm *VM) osrHasFailed(site osrSite) bool {
	vm.osrMu.Lock()
	defer vm.osrMu.Unlock()
	return vm.osrFailed[site]
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
	atomic.AddInt64(&vm.VMStats.OSREntries, 1)
	vm.flight.Record(flight.KindOSREnter, int32(f.Method.ID), int32(f.PC), 0, 0, 0)
	if s := vm.Opts.Sink; s != nil {
		s.VMOSREnter(f.Method.QualifiedName(), f.PC)
	}
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
	if c := vm.osrInstalled(osrSite{m, entryBCI}); c != nil {
		return c.Graph()
	}
	return nil
}
