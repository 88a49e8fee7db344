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
// Dumping is driven by the obs package's per-phase IR-snapshot hooks: the
// command registers one snapshot consumer on an event sink and the
// pipeline stages publish their IR through it. Besides the four named
// stages, -phase also accepts any optimization phase name (for example
// gvn or dce) to print the IR each time that phase changes the graph.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pea/internal/build"
	"pea/internal/ir"
	"pea/internal/mj"
	"pea/internal/obs"
	"pea/internal/opt"
	"pea/internal/pea"
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
	example := flag.String("example", "cachekey", "built-in example: cachekey (Figure 2) or framestate (Figure 8)")
	file := flag.String("file", "", "MiniJava source file to dump instead of a built-in example")
	method := flag.String("method", "", "method to dump as Class.method (defaults per example)")
	phase := flag.String("phase", "pea", "pipeline stage: built, inlined, pea, final, or any optimization phase name")
	dotOut := flag.Bool("dot", false, "emit Graphviz DOT instead of text (Figure 2 as a drawing)")
	trace := flag.Bool("trace", false, "log the escape analysis decisions to stderr")
	flag.Parse()

	var src, defaultMethod string
	switch {
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			fatal(err)
		}
		src = string(data)
		if *method == "" {
			fatal(fmt.Errorf("-file requires -method Class.method"))
		}
	case *example == "cachekey":
		src, defaultMethod = cachekeySrc, "Main.getValue"
	case *example == "framestate":
		src, defaultMethod = framestateSrc, "Main.foo"
	default:
		fatal(fmt.Errorf("unknown example %q", *example))
	}
	if *method == "" {
		*method = defaultMethod
	}

	prog, err := mj.Compile(src, "Main.main")
	if err != nil {
		fatal(err)
	}
	dot := strings.LastIndex(*method, ".")
	if dot <= 0 {
		fatal(fmt.Errorf("bad -method %q", *method))
	}
	cls := prog.ClassByName((*method)[:dot])
	if cls == nil {
		fatal(fmt.Errorf("no class %q", (*method)[:dot]))
	}
	m := cls.MethodByName((*method)[dot+1:])
	if m == nil {
		fatal(fmt.Errorf("no method %q", *method))
	}

	// All dumping goes through the obs snapshot hooks: the named stages
	// below and every optimization phase publish their IR to the sink,
	// and the single consumer registered here prints whichever snapshots
	// match the selected -phase.
	sink := obs.NewSink()
	shown := false
	sink.OnSnapshot(func(ph, _ string, render func() string) {
		if ph != *phase {
			return
		}
		shown = true
		fmt.Print(render())
	})

	var g *ir.Graph
	snap := func(name, banner string) {
		sink.Snapshot(name, *method, func() string {
			if *dotOut {
				return ir.DumpDot(g)
			}
			return fmt.Sprintf("=== %s (%s) ===\n%s\n", *method, banner, ir.Dump(g))
		})
	}

	g, err = build.BuildWith(m, sink)
	if err != nil {
		fatal(err)
	}
	snap("built", "as built from bytecode")
	if *phase == "built" {
		return
	}
	pipe := &opt.Pipeline{Phases: []opt.Phase{
		&opt.Inliner{BuildGraph: build.Build, Program: prog, Sink: sink},
		opt.Canonicalize{},
		opt.SimplifyCFG{},
		opt.GVN{},
		opt.DCE{},
	}, Sink: sink}
	if err := pipe.Run(g); err != nil {
		fatal(err)
	}
	snap("inlined", "after inlining and canonicalization — paper Figure 2 / Listing 5")
	if *phase == "inlined" {
		return
	}
	// -trace logs the escape analysis only: the text backend sees the
	// events emitted while pea.Run runs.
	inPEA := false
	if *trace {
		text := obs.NewTextBackend(os.Stderr)
		sink.AddBackend(obs.FuncBackend(func(e *obs.Event) {
			if inPEA {
				text.Write(e)
			}
		}))
	}
	inPEA = true
	res, err := pea.Run(g, pea.Config{Sink: sink})
	inPEA = false
	if err != nil {
		fatal(err)
	}
	if err := ir.Verify(g); err != nil {
		fatal(fmt.Errorf("PEA produced invalid IR: %w", err))
	}
	snap("pea", fmt.Sprintf("after Partial Escape Analysis — paper Listing 6 / Figure 8 "+
		"(virtualized %d allocs, %d monitors; %d materialization sites)",
		res.VirtualizedAllocs, res.ElidedMonitors, res.MaterializeSites))
	if *phase == "pea" {
		return
	}
	post := opt.Standard()
	post.Sink = sink
	if err := post.Run(g); err != nil {
		fatal(err)
	}
	snap("final", "final")
	if !shown {
		fatal(fmt.Errorf("no snapshot for -phase %q (no such stage, or the phase never changed the IR)", *phase))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "irdump:", err)
	os.Exit(1)
}
