package vm

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"pea/internal/bc"
	"pea/internal/broker"
	"pea/internal/check"
)

// captureCrashRepro turns a contained compiler panic into an offline
// artifact: a minimized, committed-format JSON reproducer in
// Options.CrashDir — the moral equivalent of HotSpot's replay files. It
// runs on the broker's failure path (possibly a worker goroutine), never
// on the execution thread.
//
// The method is cloned before anything else: check.Minimize mutates the
// candidate body in place while the interpreter may still be executing the
// original. Minimization re-runs the compile pipeline on the clone after
// every candidate reduction, keeping only reductions under which the
// compile still panics; when the panic does not reproduce standalone
// (e.g. it depended on a racing profile state or an every-N fault
// counter), the unminimized body is saved with a note saying so — a
// non-reproducible repro is still a better bug report than a log line.
func (vm *VM) captureCrashRepro(m *bc.Method, k broker.Key, pe *broker.PanicError) {
	if vm.Opts.CrashDir == "" {
		return
	}
	if vm.methods[m.ID].crashCaptured.Swap(true) {
		return // one capture per method
	}

	clone := cloneForRepro(m)
	note := fmt.Sprintf("compiler panic: %v", pe.Value)
	if vm.compilePanics(clone, k) {
		removed := check.Minimize(clone, func() bool { return vm.compilePanics(clone, k) })
		note += fmt.Sprintf(" (minimized: %d instructions eliminated)", removed)
	} else {
		note += " (panic did not reproduce standalone; body saved unminimized)"
	}

	if err := os.MkdirAll(vm.Opts.CrashDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "vm: cannot create crash dir %s: %v\n", vm.Opts.CrashDir, err)
		return
	}
	path := filepath.Join(vm.Opts.CrashDir, "crash-"+sanitizeName(m.QualifiedName())+".json")
	if err := check.NewRepro(clone, vm.Opts.Seed, note).Save(path); err != nil {
		fmt.Fprintf(os.Stderr, "vm: cannot save crash repro %s: %v\n", path, err)
		return
	}
	atomic.AddInt64(&vm.stats.CrashRepros, 1)
	vm.Opts.Sink.VMCrashRepro(m.QualifiedName(), path)

	// Dump the ring next to the repro: the last few thousand compile/deopt/
	// OSR events leading up to the panic are exactly the context a crash
	// investigation needs (the JFR dump-on-exit model).
	fpath := filepath.Join(vm.Opts.CrashDir, "flight-"+sanitizeName(m.QualifiedName())+".jsonl")
	if err := vm.Opts.Sink.WriteRingFile(fpath); err != nil {
		fmt.Fprintf(os.Stderr, "vm: cannot save flight dump %s: %v\n", fpath, err)
	}
}

// compilePanics reports whether compiling clone under k's configuration
// panics. Errors (including budget bailouts) do not count: the minimizer
// must not "simplify" a panic into an ordinary failure.
func (vm *VM) compilePanics(clone *bc.Method, k broker.Key) (panicked bool) {
	defer func() {
		if recover() != nil {
			panicked = true
		}
	}()
	_, _ = vm.compileEntry(clone, k.Spec, k.EntryBCI)
	return false
}

// cloneForRepro copies m deeply enough that mutating the clone's body is
// invisible to concurrent execution of the original: the Method struct and
// its Code slice are copied; the Class pointer (and with it the qualified
// name the repro records) is shared read-only.
func cloneForRepro(m *bc.Method) *bc.Method {
	clone := *m
	clone.Code = append([]bc.Instr(nil), m.Code...)
	clone.LocalKinds = append([]bc.Kind(nil), m.LocalKinds...)
	return &clone
}

// sanitizeName maps a qualified method name onto a filesystem-safe file
// stem (Class.method → Class_method). Method names come from untrusted
// source programs (a hostile tenant can name a class "../../../../etc"),
// so the mapping is an allowlist: anything outside [A-Za-z0-9-] becomes
// '_', which removes separators, traversal dots, NULs, and shell
// metacharacters in one pass. Stems longer than maxNameStem — filenames
// hit filesystem limits around 255 bytes, and two prefixes land on top —
// are truncated and suffixed with a hash of the full name so distinct
// long names keep distinct files; an empty name gets the same treatment.
func sanitizeName(qname string) string {
	const maxNameStem = 120
	s := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-':
			return r
		default:
			return '_'
		}
	}, qname)
	if len(s) <= maxNameStem && s != "" {
		return s
	}
	h := fnv.New64a()
	h.Write([]byte(qname))
	if len(s) > maxNameStem {
		s = s[:maxNameStem]
	}
	return fmt.Sprintf("%s-%016x", s, h.Sum64())
}
