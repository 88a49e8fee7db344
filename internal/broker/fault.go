package broker

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"pea/internal/budget"
)

// PanicError is a compile pipeline panic converted into a structured,
// per-method failure by the broker's containment layer. The VM's failure
// callback inspects it (errors.As) to blacklist the artifact and capture a
// minimized crash reproducer; the captured stack makes the original
// failure debuggable offline even though the worker goroutine survived.
type PanicError struct {
	// Method is the qualified name of the method whose compile panicked.
	Method string
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack at recovery time.
	Stack string
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("broker: compiler panic in %s: %v", e.Method, e.Value)
}

// Transient classifies a compilation failure. Transient failures — budget
// violations (compile deadline, IR node bound) — are environmental: the
// same compile may succeed later, so the VM re-arms the method's hotness
// trigger with backoff instead of blacklisting it. Everything else
// (pipeline errors, checker violations, contained panics) is a permanent
// property of the method under the current compiler and pins the method to
// the interpreter.
func Transient(err error) bool { return budget.IsBudget(err) }

// Fault-injection points. The broker invokes Options.InjectFault (when
// set) with one of these names plus the method's qualified name; the VM's
// pipeline adds its own per-phase points ("build", "build-osr", "opt",
// "prune", EA-mode names, "post", "lower"), firing the same hook through
// Broker.FaultHook. A hook that panics exercises the containment layer
// exactly like a real compiler bug — deterministically.
const (
	// FaultCompile fires on a worker (or the submitting goroutine in
	// synchronous mode) immediately before the compile pipeline runs.
	FaultCompile = "compile"
	// FaultInstall fires after a successful compile, before the install
	// callback publishes the code.
	FaultInstall = "install"
)

// FaultFromEnv builds a fault-injection hook from the PEA_FAULT
// environment variable, or returns nil when unset. The spec grammar is
//
//	PEA_FAULT=<point>:<action>[:<every>[:<arg>]]
//
// where point names an injection point ("compile", "install", or one of
// the VM's phase points such as "pea"), action is "panic" or "delay",
// every fires the fault on every n-th visit of that point (default 1),
// and arg is the sleep duration for "delay" (default 1ms) or a method-name
// substring filter for "panic". Examples:
//
//	PEA_FAULT=compile:panic:7      panic on every 7th compile
//	PEA_FAULT=pea:panic:1:Loop     panic whenever PEA runs on *Loop*
//	PEA_FAULT=compile:delay:3:2ms  stall every 3rd compile for 2ms
//
// The returned hook is safe for concurrent use; the visit counter is
// shared across all points so "every" is deterministic for single-threaded
// submission orders and merely pseudo-random under concurrency — which is
// exactly what the fault-smoke CI job wants.
func FaultFromEnv() func(point, method string) {
	spec := os.Getenv("PEA_FAULT")
	if spec == "" {
		return nil
	}
	hook, err := ParseFault(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "broker: ignoring PEA_FAULT=%q: %v\n", spec, err)
		return nil
	}
	return hook
}

// ParseFault parses a PEA_FAULT spec (see FaultFromEnv) into a hook.
func ParseFault(spec string) (func(point, method string), error) {
	parts := strings.SplitN(spec, ":", 4)
	if len(parts) < 2 {
		return nil, fmt.Errorf("want <point>:<action>[:<every>[:<arg>]]")
	}
	point, action := parts[0], parts[1]
	every := int64(1)
	if len(parts) >= 3 && parts[2] != "" {
		n, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad every %q", parts[2])
		}
		every = n
	}
	arg := ""
	if len(parts) == 4 {
		arg = parts[3]
	}
	var sleep time.Duration
	var methodFilter string
	switch action {
	case "panic":
		methodFilter = arg
	case "delay":
		sleep = time.Millisecond
		if arg != "" {
			d, err := time.ParseDuration(arg)
			if err != nil {
				return nil, fmt.Errorf("bad delay duration %q", arg)
			}
			sleep = d
		}
	default:
		return nil, fmt.Errorf("unknown action %q (want panic or delay)", action)
	}

	var visits atomic.Int64
	return func(p, method string) {
		if p != point {
			return
		}
		if methodFilter != "" && !strings.Contains(method, methodFilter) {
			return
		}
		if visits.Add(1)%every != 0 {
			return
		}
		switch action {
		case "panic":
			panic(fmt.Sprintf("injected fault at %s compiling %s", p, method))
		case "delay":
			time.Sleep(sleep)
		}
	}, nil
}
