// Package exec executes compiled IR graphs against the shared runtime
// environment. It plays the role of machine code in the paper's system: the
// JIT "installs" a compilation artifact, and an execution backend runs it,
// performing dynamic dispatch through the VM-provided Invoke hook and
// transferring to the interpreter through the Deopt hook when an OpDeopt
// node is reached (at which point scalar-replaced objects are materialized
// from the FrameState by the deopt runtime).
//
// Two backends implement the Backend interface. Both are dispatchers: what a
// node's operation does is defined once, in the guest-operation kernel of
// internal/rt, and a backend only moves operands to it and results from it.
//
//   - the oracle (this package, oracle.go): a tree-walking engine that
//     evaluates the scheduled graph node by node. It is slow but simple
//     enough to audit, and serves as the differential-testing oracle for
//     every other backend's lowering.
//   - closure (package exec/closure): a template JIT that lowers the graph
//     once, at install time, into flat per-block closure sequences with
//     operands pre-resolved to dense value slots — the backend every
//     wall-clock number is measured on.
//
// The Engine carries the per-VM runtime hooks (environment, invoke, deopt)
// shared by all backends; the step budget they charge is the Env's.
// Per-invocation state lives in backend-private frames, so one installed
// Code may run concurrently on any number of goroutines.
package exec

import (
	"pea/internal/bc"
	"pea/internal/ir"
	"pea/internal/rt"
)

// Backend lowers scheduled IR graphs into executable artifacts.
type Backend interface {
	// Name identifies the backend ("oracle", "closure"). It participates
	// in compiled-code cache keys, so artifacts lowered by one backend are
	// never replayed into a VM running another.
	Name() string
	// Compile lowers g once, at install time. The returned Code must be
	// immutable and safe for concurrent Run calls.
	Compile(g *ir.Graph) (Code, error)
}

// Code is one installed compilation product.
type Code interface {
	// Graph returns the scheduled IR the code was lowered from, for
	// install-boundary verification, OSR entry checks, and tools.
	Graph() *ir.Graph
	// Run executes the code against the engine's environment and hooks.
	Run(e *Engine, args []rt.Value) (rt.Value, error)
}

// Engine carries the runtime hooks every execution backend needs.
type Engine struct {
	Env *rt.Env

	// Invoke executes a call from compiled code. kind is the dispatch
	// kind (virtual dispatch has already been resolved against the
	// receiver). If nil, calls trap.
	Invoke func(callee *bc.Method, args []rt.Value) (rt.Value, error)

	// Deopt transfers execution to the interpreter at the OpDeopt node n
	// reached inside g. The node carries the FrameState to resume at, the
	// recorded deopt reason, and the DeoptAction that tells the runtime
	// whether the containing code must be invalidated (a failed
	// speculation) or stays valid (a rare-but-legal path). eval maps IR
	// nodes to their current runtime values (materializing virtual
	// objects is the callee's job). The returned value is the result of
	// the whole compiled method. If nil, reaching a deopt traps.
	Deopt func(g *ir.Graph, n *ir.Node, eval func(x *ir.Node) (rt.Value, bool)) (rt.Value, error)
}

// DeoptTransfer hands control to the interpreter via the Deopt hook,
// counting the deopt in the runtime stats. Backends call it when execution
// reaches an OpDeopt terminator.
func (e *Engine) DeoptTransfer(g *ir.Graph, n *ir.Node, eval func(x *ir.Node) (rt.Value, bool)) (rt.Value, error) {
	if e.Deopt == nil {
		return rt.Value{}, rt.NewTrap("deopt without handler: "+n.DeoptReason, g.Method, n.BCI)
	}
	e.Env.Stats.Deopts++
	return e.Deopt(g, n, eval)
}
