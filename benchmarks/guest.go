package benchmarks

import (
	"fmt"
	"strings"

	"pea/internal/bc"
	"pea/internal/mj"
	"pea/internal/rt"
	"pea/internal/vm"
)

const hashPrime = 1099511628211

// guest drives one program on one VM, an op at a time, folding everything the
// program returns or prints into a rolling hash that is compared against the
// interpreter's.
type guest struct {
	p    *Program
	prog *bc.Program
	vm   *vm.VM
	op   *bc.Method
	ops  int
	hash uint64
}

func staticMethod(prog *bc.Program, qualified string) (*bc.Method, error) {
	cls, name, ok := strings.Cut(qualified, ".")
	if ok {
		if c := prog.ClassByName(cls); c != nil {
			if m := c.MethodByName(name); m != nil {
				return m, nil
			}
		}
	}
	return nil, fmt.Errorf("benchmarks: no method %q", qualified)
}

// interpreterOptions is the reference configuration: no compiler at all.
func interpreterOptions(p *Program) vm.Options {
	return vm.Options{Interpret: true, Seed: p.Seed}
}

// jitOptions is the configuration of the steady and compile workloads.
func jitOptions(p *Program, mode vm.EAMode, backend vm.Backend) vm.Options {
	return vm.Options{EA: mode, Backend: backend, CompileThreshold: 10, Seed: p.Seed}
}

// newGuest links the program from source, creates its VM and runs the
// program's set-up method.
func newGuest(p *Program, opts vm.Options) (*guest, error) {
	prog, err := mj.Compile(p.Source, "Main.main")
	if err != nil {
		return nil, fmt.Errorf("benchmarks: %s: %w", p.Name, err)
	}
	return newGuestOn(p, prog, opts)
}

func newGuestOn(p *Program, prog *bc.Program, opts vm.Options) (*guest, error) {
	op, err := staticMethod(prog, p.Op)
	if err != nil {
		return nil, err
	}
	g := &guest{p: p, prog: prog, vm: vm.New(prog, opts), op: op}
	if p.Setup != "" {
		setup, err := staticMethod(prog, p.Setup)
		if err != nil {
			return nil, err
		}
		if _, err := g.vm.Call(setup, nil); err != nil {
			return nil, fmt.Errorf("benchmarks: %s set-up: %w", p.Name, err)
		}
	}
	return g, nil
}

// step runs one guest operation and folds its result into the hash.
func (g *guest) step() error {
	v, err := g.vm.Call(g.op, nil)
	if err != nil {
		return fmt.Errorf("benchmarks: %s op %d: %w", g.p.Name, g.ops, err)
	}
	g.fold(v)
	return nil
}

func (g *guest) fold(v rt.Value) {
	env := g.vm.Env
	h := (g.hash ^ uint64(v.I)) * hashPrime
	for _, o := range env.Output {
		h = (h ^ uint64(o)) * hashPrime
	}
	env.Output = env.Output[:0]
	g.hash = h
	g.ops++
}

func (g *guest) close() { g.vm.Close() }

// failedCompiles reports permanent compile failures: a method that silently
// stays interpreted would make a timing meaningless, so it counts as failed.
func (g *guest) failedCompiles() int { return len(g.vm.FailedCompilations()) }

// reference interprets the first n ops of p on the interpreter-only VM and
// returns the rolling hash after each — the live, compiler-free reference.
func reference(p *Program, n int) ([]uint64, error) {
	g, err := newGuest(p, interpreterOptions(p))
	if err != nil {
		return nil, err
	}
	defer g.close()
	out := make([]uint64, n)
	for i := range out {
		if err := g.step(); err != nil {
			return nil, err
		}
		out[i] = g.hash
	}
	return out, nil
}

// references computes the live reference of every program.
func references(progs []*Program, n int) ([][]uint64, error) {
	refs := make([][]uint64, len(progs))
	for i, p := range progs {
		var err error
		if refs[i], err = reference(p, n); err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// frozenRef returns the manifest checkpoint after ops guest ops, if gen
// recorded one.
func (p *Program) frozenRef(ops int) (uint64, bool) {
	i := ops/refStride - 1
	if ops%refStride != 0 || i < 0 || i >= len(p.Ref) {
		return 0, false
	}
	var h uint64
	if _, err := fmt.Sscanf(p.Ref[i], "%x", &h); err != nil {
		return 0, false
	}
	return h, true
}
