// Package bench holds the inputs of the paper's evaluation (§6): for every
// benchmark row of Table 1 — the DaCapo and ScalaDaCapo suites and
// SPECjbb2005 — a synthetic MiniJava workload whose allocation and locking
// *structure* models the behaviour the paper reports for that benchmark,
// plus the closed-loop client behind peaload (load.go). peaperf gen froze
// the generated sources under benchmarks/programs, and everything runs those
// copies, not this generator: peaperf measures their wall clock, and the
// package's own tests drive them through peaperf's steady window for the
// exact guest counters — Table 1's allocation and byte columns, the §6.1
// monitor reductions and §6.2 in allocations, each pinned per row — plus
// the ablation study.
//
// The real benchmarks are large proprietary Java programs that cannot run
// on this VM; what the paper's claims depend on is the *distribution* of
// object lifetimes — how many allocations are method-local temporaries,
// how many escape on rare paths only, how many truly escape, and how much
// of the heap is array data that escape analysis cannot touch. Those
// fractions are the knobs of WorkloadSpec, set per benchmark from the
// paper's own Table 1 characterization. The optimizations themselves are
// never simulated: the numbers come out of the actual compiler pipeline
// running the generated programs.
package bench

import (
	"fmt"
	"strings"
)

// WorkloadSpec parameterizes one synthetic benchmark.
type WorkloadSpec struct {
	// Name is the benchmark row name from Table 1.
	Name string
	// Suite is "dacapo", "scaladacapo", or "specjbb".
	Suite string

	// Ops is the number of inner operations per benchmark iteration.
	Ops int

	// TempPct is the percentage of operations that allocate method-local
	// temporaries (fully removable by any escape analysis once inlined).
	TempPct int
	// Depth is the number of chained temporaries per such operation —
	// the "additional levels of abstraction" (paper abstract) that make
	// Scala-compiled code so allocation-heavy.
	Depth int

	// PartialPct is the percentage of operations allocating an object
	// that escapes only on a slow path taken with EscapeProb/1000
	// probability (the paper's core pattern; invisible to
	// flow-insensitive EA, removed on the fast path by PEA).
	PartialPct int
	// EscapeProbPermille is the slow-path probability in 1/1000 units.
	EscapeProbPermille int
	// PartialSites spreads PartialPct over this many distinct code
	// sites (default 1); more sites mean more materialization paths and
	// larger compiled code after PEA.
	PartialSites int

	// GlobalPct is the percentage of operations allocating objects that
	// always escape into a global store (no analysis can remove them).
	GlobalPct int

	// ArrayLen, when non-zero, makes every global-escape operation also
	// allocate an int[ArrayLen] buffer that escapes. Arrays dominate
	// allocated bytes; this models the paper's observation that "the
	// relative decrease in the number of allocations is usually higher
	// than the decrease in the number of allocated bytes, since the
	// allocations not removed ... often contain large arrays".
	ArrayLen int

	// SyncTempPct is the percentage of operations that lock a
	// non-escaping object (elidable by EA/PEA).
	SyncTempPct int
	// SyncGlobalPct is the percentage of operations that lock a global
	// object (never elidable).
	SyncGlobalPct int

	// WorkLoops adds WorkLoops iterations of plain integer work per
	// operation, diluting the share of run time that allocation is
	// responsible for (benchmarks with low speedups spend their time
	// computing, not allocating).
	WorkLoops int

	// Polymorphic makes the temp-consuming call site dispatch over two
	// receiver classes, defeating inlining-based devirtualization and
	// therefore the escape analyses that need inlined bodies — used for
	// the benchmarks the paper lists as "no significant change".
	Polymorphic bool
}

// Source generates the MiniJava program for the spec. The program exposes
// Bench.iteration(), performing Ops operations per call, and Store.setup()
// run once. Its one caller is peaperf gen, which freezes the result.
func (w *WorkloadSpec) Source() string {
	var b strings.Builder
	fmt.Fprintf(&b, `
// Synthetic workload %q (%s suite).
class Tmp {
	int v;
	Tmp next;
	Tmp(int v, Tmp next) { this.v = v; this.next = next; }
	int get() { return v; }
}
class Shape {
	int scale;
	int eval(Tmp t) { return t.v * scale; }
}
class Shape2 extends Shape {
	int eval(Tmp t) { return t.v + scale; }
}
class Store {
	static Tmp[] ring;
	static int[] buf;
	static int idx;
	static Tmp lock;
	static Shape s1;
	static Shape s2;
	static void setup() {
		ring = new Tmp[64];
		lock = new Tmp(0, null);
		s1 = new Shape();
		s1.scale = 3;
		s2 = new Shape2();
		s2.scale = 5;
	}
}
class Bench {
`, w.Name, w.Suite)

	// op: one operation; the bands below partition [0,100) by op index.
	b.WriteString("\tstatic int op(int i) {\n")
	b.WriteString("\t\tint acc = i;\n")
	b.WriteString("\t\tint band = i % 100;\n")

	lo := 0
	band := func(pct int, body func()) {
		if pct <= 0 {
			return
		}
		hi := lo + pct
		fmt.Fprintf(&b, "\t\tif (band >= %d && band < %d) {\n", lo, hi)
		body()
		b.WriteString("\t\t}\n")
		lo = hi
	}

	band(w.TempPct, func() {
		// A chain of Depth temporaries, each consumed immediately;
		// after inlining of get(), PEA (and EA) scalar-replace all of
		// them.
		b.WriteString("\t\t\tTmp t = new Tmp(i, null);\n")
		for d := 0; d < w.Depth; d++ {
			b.WriteString("\t\t\tt = new Tmp(t.get() + 1, null);\n")
		}
		b.WriteString("\t\t\tacc = acc + t.get();\n")
	})
	// The partial band is split into PartialSites distinct code copies:
	// the dynamic behaviour is unchanged, but each site carries its own
	// materialization path after PEA, modeling the code growth the paper
	// blames for the jython regression ("Partial Escape Analysis can in
	// rare cases increase the size of compiled methods").
	sites := w.PartialSites
	if sites <= 0 {
		sites = 1
	}
	per := w.PartialPct / sites
	rem := w.PartialPct - per*sites
	for sIdx := 0; sIdx < sites; sIdx++ {
		p := per
		if sIdx == 0 {
			p += rem
		}
		band(p, func() {
			fmt.Fprintf(&b, `			Tmp p = new Tmp(i * 3, null);
			if (rand(1000) < %d) {
				Store.ring[Store.idx %% 64] = p;
				Store.idx = Store.idx + 1;
				acc = acc + p.get() * 2;
			} else {
				acc = acc + p.get();
			}
`, w.EscapeProbPermille)
		})
	}
	band(w.GlobalPct, func() {
		b.WriteString("\t\t\tTmp g = new Tmp(i, null);\n")
		b.WriteString("\t\t\tStore.ring[Store.idx % 64] = g;\n")
		b.WriteString("\t\t\tStore.idx = Store.idx + 1;\n")
		if w.ArrayLen > 0 {
			fmt.Fprintf(&b, "\t\t\tStore.buf = new int[%d];\n", w.ArrayLen)
			b.WriteString("\t\t\tStore.buf[i % ")
			fmt.Fprintf(&b, "%d] = i;\n", w.ArrayLen)
			b.WriteString("\t\t\tacc = acc + Store.buf[0];\n")
		}
		b.WriteString("\t\t\tacc = acc + g.get();\n")
	})
	band(w.SyncTempPct, func() {
		// Lock a freshly allocated, non-escaping object: both the
		// allocation and the monitor pair disappear under EA/PEA.
		b.WriteString("\t\t\tTmp m = new Tmp(i, null);\n")
		b.WriteString("\t\t\tsynchronized (m) { acc = acc + m.get(); }\n")
	})
	band(w.SyncGlobalPct, func() {
		b.WriteString("\t\t\tsynchronized (Store.lock) { acc = acc + 1; }\n")
	})
	if w.Polymorphic {
		// Alternating receivers defeat CHA and profile-based
		// devirtualization; the temp passed to eval escapes as a call
		// argument, so no escape analysis can remove it.
		b.WriteString(`		Shape sh = Store.s1;
		if (i % 2 == 0) { sh = Store.s2; }
		Tmp arg = new Tmp(i, null);
		acc = acc + sh.eval(arg);
`)
	}
	if w.WorkLoops > 0 {
		fmt.Fprintf(&b, `		int wk = 0;
		for (int k = 0; k < %d; k++) { wk = wk * 31 + (k ^ acc); }
		acc = acc + (wk & 255);
`, w.WorkLoops)
	}
	b.WriteString("\t\treturn acc;\n\t}\n")

	fmt.Fprintf(&b, `
	static int iteration() {
		int acc = 0;
		for (int i = 0; i < %d; i++) {
			acc = acc + op(i);
		}
		return acc;
	}
}
class Main {
	static void main() {
		Store.setup();
		print(Bench.iteration());
	}
}
`, w.Ops)
	return b.String()
}
