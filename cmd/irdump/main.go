// Command irdump shows the compiler IR of the paper's running examples at
// selected pipeline stages, regenerating (in textual form) the paper's
// Figure 2 — the Graal IR of Listing 5 after inlining — and Figure 8 — the
// FrameStates of Listing 8 before and after Partial Escape Analysis.
//
// Usage:
//
//	irdump [-example cachekey|framestate] [-phase built|inlined|pea|final] [-method Class.method]
//	irdump -file prog.mj -method Class.method [-phase ...]
//
// irdump runs no pipeline of its own: it compiles the method with
// vm.Compile on a PEA VM, exactly as the VM compiles it, and is a
// snapshot consumer of the VM's event sink. The compile publishes the
// four named stages, and every optimization phase publishes its graph
// each time it changes it, so -phase also accepts any phase name (for
// example gvn or dce). -trace prints the VM's events of the PEA phase
// (phase == "pea") to stderr.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pea/internal/ir"
	"pea/internal/mj"
	"pea/internal/obs"
	"pea/internal/vm"
)

// cachekeySrc is the paper's Listing 1 (and, once inlined, Listing 5); the
// IR after the "inlined" phase corresponds to Figure 2, and after "pea" to
// Listing 6.
const cachekeySrc = `
class Key {
	int idx;
	Key(int idx) { this.idx = idx; }
	boolean equalsKey(Key other) {
		synchronized (this) {
			return other != null && idx == other.idx;
		}
	}
}
class Cache {
	static Key cacheKey;
	static int cacheValue;
}
class Main {
	static int createValue(int idx) { return idx * 31; }
	static int getValue(int idx) {
		Key key = new Key(idx);
		if (key.equalsKey(Cache.cacheKey)) {
			return Cache.cacheValue;
		} else {
			Cache.cacheKey = key;
			Cache.cacheValue = createValue(idx);
			return Cache.cacheValue;
		}
	}
	static void main() { print(getValue(1)); }
}
`

// framestateSrc is the paper's Listing 8: after inlining the constructor,
// the field store carries a two-frame state chain; after PEA the store's
// state references a virtual object descriptor instead of the allocation
// (Figure 8).
const framestateSrc = `
class Integer {
	int value;
	Integer(int value) { this.value = value; }
}
class Main {
	static Integer global;
	static void foo(int x) {
		Integer i = new Integer(x);
		global = null;
		global = i;
	}
	static void main() { foo(7); }
}
`

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "irdump:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, prints the selected stage of the
// method to stdout and the -trace events to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	flags := flag.NewFlagSet("irdump", flag.ContinueOnError)
	flags.SetOutput(stderr)
	example := flags.String("example", "cachekey", "built-in example: cachekey (Figure 2) or framestate (Figure 8)")
	file := flags.String("file", "", "MiniJava source file to dump instead of a built-in example")
	method := flags.String("method", "", "method to dump as Class.method (defaults per example)")
	phase := flags.String("phase", "pea", "pipeline stage: built, inlined, pea, final, or any optimization phase name")
	dotOut := flags.Bool("dot", false, "emit Graphviz DOT instead of text (Figure 2 as a drawing)")
	trace := flags.Bool("trace", false, "log the escape analysis decisions to stderr")
	if err := flags.Parse(args); err == flag.ErrHelp {
		return nil
	} else if err != nil {
		return err
	}

	var src, defaultMethod string
	switch {
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		src = string(data)
		if *method == "" {
			return fmt.Errorf("-file requires -method Class.method")
		}
	case *example == "cachekey":
		src, defaultMethod = cachekeySrc, "Main.getValue"
	case *example == "framestate":
		src, defaultMethod = framestateSrc, "Main.foo"
	default:
		return fmt.Errorf("unknown example %q", *example)
	}
	if *method == "" {
		*method = defaultMethod
	}

	prog, err := mj.Compile(src, "Main.main")
	if err != nil {
		return err
	}
	dot := strings.LastIndex(*method, ".")
	if dot <= 0 {
		return fmt.Errorf("bad -method %q", *method)
	}
	cls := prog.ClassByName((*method)[:dot])
	if cls == nil {
		return fmt.Errorf("no class %q", (*method)[:dot])
	}
	m := cls.MethodByName((*method)[dot+1:])
	if m == nil {
		return fmt.Errorf("no method %q", *method)
	}

	// The PEA stage's banner reports the decisions the compile made: the
	// metrics fold of the stream counts them.
	met := obs.NewMetrics()
	sink := obs.NewSink(met)
	if *trace {
		text := obs.NewTextBackend(stderr)
		sink.AddBackend(obs.FuncBackend(func(e *obs.Event) {
			if e.Phase == "pea" {
				text.Write(e)
			}
		}))
	}
	shown := false
	sink.OnSnapshot(func(ph, _ string, g *ir.Graph) {
		if ph != *phase {
			return
		}
		shown = true
		if *dotOut {
			fmt.Fprint(stdout, ir.DumpDot(g))
			return
		}
		banner, ok := banners[ph]
		if !ok {
			banner = ph
		}
		if ph == "pea" {
			banner += fmt.Sprintf(" (virtualized %d allocs, %d monitors; %d materialization sites)",
				met.Counter(obs.KindVirtualize), met.Counter(obs.KindLockElide),
				met.Counter(obs.KindMaterialize)+met.Counter(obs.KindMergeMaterialize))
		}
		fmt.Fprintf(stdout, "=== %s (%s) ===\n%s\n", *method, banner, ir.Dump(g))
	})
	machine := vm.New(prog, vm.Options{EA: vm.EAPartial, Sink: sink})
	defer machine.Close()
	if _, err := machine.Compile(m); err != nil {
		return err
	}
	if !shown {
		return fmt.Errorf("no snapshot for -phase %q (no such stage, or the phase never changed the IR)", *phase)
	}
	return nil
}

// banners names the paper's artifact each stage regenerates.
var banners = map[string]string{
	"built":   "as built from bytecode",
	"inlined": "after inlining and canonicalization — paper Figure 2 / Listing 5",
	"pea":     "after Partial Escape Analysis — paper Listing 6 / Figure 8",
}
