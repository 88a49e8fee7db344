package vm

import (
	"fmt"

	"pea/internal/exec"
	"pea/internal/exec/closure"
)

// Backend selects the execution backend installed code runs on.
type Backend int

const (
	// BackendClosure is the template JIT (the default): graphs are lowered
	// once at install time into flat per-block closure sequences with dense
	// value slots — the backend every wall-clock number is measured on.
	BackendClosure Backend = iota
	// BackendOracle is the tree-walking reference evaluator: slow,
	// auditable, and the differential-testing oracle for every other
	// backend.
	BackendOracle
)

// String names the backend as the -backend flag spells it.
func (b Backend) String() string {
	switch b {
	case BackendClosure:
		return "closure"
	case BackendOracle:
		return "oracle"
	default:
		return fmt.Sprintf("Backend(%d)", int(b))
	}
}

// ParseBackend parses a -backend flag value.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "oracle":
		return BackendOracle, nil
	case "closure":
		return BackendClosure, nil
	default:
		return 0, fmt.Errorf("unknown backend %q (want oracle or closure)", s)
	}
}

// impl returns the exec-level backend implementation.
func (b Backend) impl() exec.Backend {
	if b == BackendClosure {
		return closure.New()
	}
	return exec.Oracle()
}
