package mj

import (
	"strings"
	"testing"

	"pea/internal/check"
	"pea/internal/interp"
	"pea/internal/rt"
	"pea/internal/vm"
)

// runMain compiles and interprets Main.main, returning the printed output.
func runMain(t *testing.T, src string) []int64 {
	t.Helper()
	prog, err := Compile(src, "Main.main")
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	env := rt.NewEnv(prog, 1)
	it := interp.New(env)
	it.Env.MaxSteps = 5_000_000
	if _, err := it.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return env.Output
}

func wantOutput(t *testing.T, src string, want ...int64) {
	t.Helper()
	got := runMain(t, src)
	if len(got) != len(want) {
		t.Fatalf("output = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %d, want %d (full: %v)", i, got[i], want[i], got)
		}
	}
}

func TestHelloArithmetic(t *testing.T) {
	wantOutput(t, `
		class Main {
			static void main() {
				print(6 * 7);
				print(10 - 3 * 2);
				print((10 - 3) * 2);
				print(17 / 5);
				print(17 % 5);
				print(-5 + 1);
				print(1 << 10);
				print(-16 >> 2);
				print(-1 >>> 62);
				print(12 & 10);
				print(12 | 10);
				print(12 ^ 10);
				print(~0);
				print(1 - 2 - 3);
				print(100 / 10 / 5);
				print(2 + 3 * 4);
				print(7 - 2 * 3 % 4);
				print(1 << 2 + 1);
				print(8 >> 1 >> 1);
				print(6 & 3 ^ 1 | 8);
				print(1 + 2 < 4 == 2 * 3 > 5);
				print(false && false || true);
				print(true || true && false);
			}
		}`,
		42, 4, 14, 3, 2, -4, 1024, -4, 3, 8, 14, 6, -1,
		-4, 2, 14, 5, 8, 2, 11, 1, 1, 1)
}

func TestControlFlow(t *testing.T) {
	wantOutput(t, `
		class Main {
			static void main() {
				int s = 0;
				for (int i = 0; i < 10; i++) {
					if (i % 2 == 0) { continue; }
					if (i == 9) { break; }
					s += i;
				}
				print(s);
				int j = 0;
				while (j < 5) { j = j + 2; }
				print(j);
			}
		}`,
		1+3+5+7, 6)
}

func TestBooleansAndShortCircuit(t *testing.T) {
	wantOutput(t, `
		class Main {
			static int calls;
			static boolean bump() { calls = calls + 1; return true; }
			static void main() {
				boolean a = true && false;
				print(a);
				print(!a);
				if (false && bump()) { print(99); }
				if (true || bump()) { print(1); }
				print(calls);
				print(3 < 4 && 4 <= 4 && 5 > 4 && 4 >= 4 && 1 == 1 && 1 != 2);
			}
		}`,
		0, 1, 1, 0, 1)
}

func TestObjectsAndConstructors(t *testing.T) {
	wantOutput(t, `
		class Point {
			int x;
			int y;
			Point(int x, int y) { this.x = x; this.y = y; }
			int dot(Point o) { return x * o.x + y * o.y; }
		}
		class Main {
			static void main() {
				Point a = new Point(3, 4);
				Point b = new Point(1, 2);
				print(a.dot(b));
				a.x = 10;
				print(a.dot(b));
			}
		}`,
		11, 18)
}

func TestInheritanceAndOverride(t *testing.T) {
	wantOutput(t, `
		class Animal {
			int legs;
			int noise() { return 0; }
			int describe() { return noise() * 100 + legs; }
		}
		class Dog extends Animal {
			int noise() { return 2; }
		}
		class Main {
			static void main() {
				Animal a = new Animal();
				a.legs = 4;
				Dog d = new Dog();
				d.legs = 4;
				print(a.describe());
				print(d.describe());
				Animal x = d;
				print(x.noise());
				print(x instanceof Dog);
				print(a instanceof Dog);
				print(x instanceof Animal);
			}
		}`,
		4, 204, 2, 1, 0, 1)
}

func TestArraysAndLength(t *testing.T) {
	wantOutput(t, `
		class Main {
			static void main() {
				int[] a = new int[5];
				for (int i = 0; i < a.length; i++) { a[i] = i * i; }
				int s = 0;
				for (int i = 0; i < a.length; i++) { s += a[i]; }
				print(s);
				int[][] m = new int[3][];
				m[0] = a;
				print(m[0][4]);
				print(m.length);
			}
		}`,
		30, 16, 3)
}

func TestStaticsAndQualifiedAccess(t *testing.T) {
	wantOutput(t, `
		class Counter {
			static int n;
			static int next() { n = n + 1; return n; }
		}
		class Main {
			static void main() {
				print(Counter.next());
				print(Counter.next());
				Counter.n = 10;
				print(Counter.next());
				print(Counter.n);
			}
		}`,
		1, 2, 11, 11)
}

func TestNullAndRefEquality(t *testing.T) {
	wantOutput(t, `
		class Box { int v; }
		class Main {
			static void main() {
				Box a = new Box();
				Box b = new Box();
				Box c = a;
				print(a == c);
				print(a == b);
				print(a != b);
				print(a == null);
				Box d = null;
				print(d == null);
			}
		}`,
		1, 0, 1, 0, 1)
}

func TestSynchronizedGeneratesMonitors(t *testing.T) {
	src := `
		class Main {
			static int main2(Main m) {
				synchronized (m) {
					return 42;
				}
			}
			static void main() {
				print(main2(new Main()));
			}
		}`
	prog, err := Compile(src, "Main.main")
	if err != nil {
		t.Fatal(err)
	}
	env := rt.NewEnv(prog, 1)
	it := interp.New(env)
	if _, err := it.Run(); err != nil {
		t.Fatal(err)
	}
	// Return from inside synchronized must still release the monitor.
	if env.Stats.MonitorOps != 2 {
		t.Fatalf("monitor ops = %d, want 2", env.Stats.MonitorOps)
	}
	if env.Output[0] != 42 {
		t.Fatalf("output = %v", env.Output)
	}
}

func TestSyncBreakUnwinds(t *testing.T) {
	wantOutput(t, `
		class Box { int v; }
		class Main {
			static void main() {
				Box b = new Box();
				int i = 0;
				while (i < 3) {
					synchronized (b) {
						i = i + 1;
						if (i == 2) { break; }
					}
				}
				print(i);
			}
		}`,
		2)
}

func TestRecursionFib(t *testing.T) {
	wantOutput(t, `
		class Main {
			static int fib(int n) {
				if (n < 2) { return n; }
				return fib(n - 1) + fib(n - 2);
			}
			static void main() { print(fib(15)); }
		}`,
		610)
}

func TestRandDeterministic(t *testing.T) {
	src := `
		class Main {
			static void main() {
				int a = rand(100);
				int b = rand(100);
				print(a >= 0 && a < 100);
				print(b >= 0 && b < 100);
			}
		}`
	wantOutput(t, src, 1, 1)
}

func TestThrowAborts(t *testing.T) {
	src := `
		class Err { int code; }
		class Main {
			static void main() {
				print(1);
				throw new Err();
			}
		}`
	prog, err := Compile(src, "Main.main")
	if err != nil {
		t.Fatal(err)
	}
	env := rt.NewEnv(prog, 1)
	it := interp.New(env)
	_, err = it.Run()
	if err == nil || !strings.Contains(err.Error(), "uncaught exception") {
		t.Fatalf("got %v, want uncaught exception", err)
	}
}

func TestCompoundAssignAndIncrement(t *testing.T) {
	wantOutput(t, `
		class S { static int n; }
		class Main {
			static void main() {
				int x = 10;
				x += 5; print(x);
				x -= 3; print(x);
				x *= 2; print(x);
				x /= 4; print(x);
				x %= 4; print(x);
				x++; print(x);
				x--; x--; print(x);
				x <<= 4; print(x);
				S.n += 4; S.n++; print(S.n);
			}
		}`,
		15, 12, 24, 6, 2, 3, 1, 16, 5)
}

func TestCheckerErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown type", `class Main { static void main() { Foo f = null; } }`, "unknown type Foo"},
		{"undefined var", `class Main { static void main() { print(x); } }`, "undefined: x"},
		{"type mismatch", `class Main { static void main() { int x = true; } }`, "cannot initialize"},
		{"bad condition", `class Main { static void main() { if (1) { } } }`, "must be boolean"},
		{"missing return", `class Main { static int f() { int x = 1; } static void main() { } }`, "missing return"},
		{"this in static", `class Main { static void main() { Main m = this; } }`, "this in a static method"},
		{"arg count", `class Main { static int f(int a) { return a; } static void main() { print(f()); } }`, "expects 1 arguments"},
		{"break outside loop", `class Main { static void main() { break; } }`, "break outside"},
		{"void field", `class Main { void x; static void main() { } }`, "cannot have type void"},
		{"dup class", `class A { } class A { } class Main { static void main() { } }`, "duplicate class"},
		{"bad compare", `class Box { } class Main { static void main() { print(new Box() == 1); } }`, "cannot compare"},
		{"instance from static", `class Main { int f() { return 1; } static void main() { print(f()); } }`, "static context"},
		{"assign to call", `class Main { static int f() { return 1; } static void main() { f() = 2; } }`, "not assignable"},
		{"expr stmt", `class Main { static void main() { 1 + 2; } }`, "must be a call"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src, "Main.main")
			if err == nil {
				t.Fatalf("compiled successfully, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

func TestParserErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"missing brace", `class Main {`, "expected"},
		{"stray token", `class Main { static void main() { print(1) } }`, "expected"},
		{"bad char", `class Main { static void main() { print(@); } }`, "unexpected character"},
		{"unterminated comment", `class Main { /*`, "unterminated"},
		// instanceof binds as the order operators, once, and only a looser
		// operator may follow it. An empty want means the source compiles.
		{"order after instanceof", `class C { } class Main { static void main() { C x = null; print(x instanceof C < 1); } }`,
			`expected ")", found "<"`},
		{"instanceof twice", `class C { } class Main { static void main() { C a = null; print(a == a instanceof C instanceof C); } }`,
			`expected ")", found "instanceof"`},
		{"equality after instanceof", `class C { } class Main { static void main() { C x = null; print(x instanceof C == true); } }`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src, "Main.main")
			if tc.want == "" {
				if err != nil {
					t.Fatalf("got %v, want it to compile", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want %q", err, tc.want)
			}
		})
	}
}

// TestNestingBound: source nested deeper than maxDepth is a compile error,
// whether it nests by recursion (parentheses, unary operators, blocks) or
// by a left-deep chain the parser reads with a loop; source just inside the
// bound compiles and runs. The 300 000-paren case overflowed the goroutine
// stack in the parser before the bound existed.
func TestNestingBound(t *testing.T) {
	for _, tc := range tooDeep() {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src, "Main.main")
			if err == nil || !strings.Contains(err.Error(), "nesting deeper than") {
				t.Fatalf("got %v, want a nesting error", err)
			}
		})
	}
	// Each level of the nested sum counts twice: a parenthesized expression
	// and a link of the + chain.
	const n = maxDepth / 3
	if got := runMain(t, nestingBody("print("+strings.Repeat("(", n)+"1"+strings.Repeat(" + 1)", n)+");")); len(got) != 1 || got[0] != n+1 {
		t.Fatalf("nested sum printed %v, want [%d]", got, n+1)
	}
	if got := runMain(t, nestingBody("print(1"+strings.Repeat(" + 1", n)+");")); len(got) != 1 || got[0] != n+1 {
		t.Fatalf("left-deep sum printed %v, want [%d]", got, n+1)
	}
}

// nestingBody wraps a statement in a Main.main that has x and a in scope.
func nestingBody(stmt string) string {
	return "class Main { static void main() { int x = 1; int[] a = new int[1]; " + stmt + " } }"
}

// tooDeep returns one source per way of nesting, each deeper than maxDepth.
func tooDeep() []struct{ name, src string } {
	return []struct{ name, src string }{
		{"parentheses", nestingBody("print(" + strings.Repeat("(", 300_000) + "1" + strings.Repeat(")", 300_000) + ");")},
		{"unary", nestingBody("print(" + strings.Repeat("- ", 5_000) + "1);")},
		{"binary chain", nestingBody("print(1" + strings.Repeat(" + 1", 5_000) + ");")},
		{"index chain", nestingBody("print(a[0]" + strings.Repeat("[0]", 5_000) + ");")},
		{"blocks", nestingBody(strings.Repeat("{", 5_000) + strings.Repeat("}", 5_000))},
		{"ifs", nestingBody(strings.Repeat("if (x > 0) ", 5_000) + "x = 2;")},
		{"array type", nestingBody("int" + strings.Repeat("[]", 5_000) + " b = null;")},
	}
}

// listing1 is the paper's Listing 1 in MiniJava, with a driver loop. The
// value cache pattern: getValue allocates a Key per call; on a hit the key
// is garbage, on a miss it escapes into the static cache.
const listing1 = `
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
	static void main() {
		int s = 0;
		for (int i = 0; i < 200; i++) {
			s += getValue(i / 8);
		}
		print(s);
	}
}
`

// TestPaperListing1EndToEnd compiles the paper's running example from
// MiniJava source and runs it through the full VM: with PEA the Key
// allocations on cache hits must disappear (paper Listings 1-6).
func TestPaperListing1EndToEnd(t *testing.T) {
	run := func(mode vm.EAMode) *vm.VM {
		prog, err := Compile(listing1, "Main.main")
		if err != nil {
			t.Fatal(err)
		}
		machine := vm.New(prog, vm.Options{EA: mode, CompileThreshold: 10, CheckLevel: check.Basic, MaxSteps: 20_000_000})
		main := prog.Main
		// Warm up: interpret, compile, then measure steady state.
		for i := 0; i < 30; i++ {
			if _, err := machine.Call(main, nil); err != nil {
				t.Fatal(err)
			}
		}
		for m, cerr := range machine.FailedCompilations() {
			t.Fatalf("compile %s: %v", m.QualifiedName(), cerr)
		}
		base := machine.Env.Stats
		for i := 0; i < 10; i++ {
			if _, err := machine.Call(main, nil); err != nil {
				t.Fatal(err)
			}
		}
		machine.Env.Stats = machine.Env.Stats.Sub(base)
		return machine
	}

	noea := run(vm.EAOff)
	peavm := run(vm.EAPartial)

	// Each main() run calls getValue 200 times with 25 distinct keys
	// (one miss each); baseline allocates 200 Keys per run, PEA only 25.
	baseAllocs := noea.Env.Stats.Allocations
	peaAllocs := peavm.Env.Stats.Allocations
	if baseAllocs != 200*10 {
		t.Fatalf("baseline allocations = %d, want 2000", baseAllocs)
	}
	if peaAllocs != 25*10 {
		t.Fatalf("PEA allocations = %d, want 250 (misses only)", peaAllocs)
	}
	// The synchronized(this) in equalsKey is inlined and fully elided on
	// every path where the key stays virtual.
	if peavm.Env.Stats.MonitorOps >= noea.Env.Stats.MonitorOps {
		t.Fatalf("PEA monitor ops = %d, baseline %d", peavm.Env.Stats.MonitorOps, noea.Env.Stats.MonitorOps)
	}
	// Identical program behaviour.
	if len(noea.Env.Output) != len(peavm.Env.Output) {
		t.Fatal("outputs diverge")
	}
	for i := range noea.Env.Output {
		if noea.Env.Output[i] != peavm.Env.Output[i] {
			t.Fatalf("output[%d]: %d vs %d", i, noea.Env.Output[i], peavm.Env.Output[i])
		}
	}
}

// TestVMModesAgreeOnMJPrograms cross-checks a few MiniJava programs across
// all VM configurations.
func TestVMModesAgreeOnMJPrograms(t *testing.T) {
	srcs := map[string]string{
		"listing1": listing1,
		"builder": `
			class Node { int v; Node next; Node(int v, Node next) { this.v = v; this.next = next; } }
			class Main {
				static void main() {
					int total = 0;
					for (int r = 0; r < 50; r++) {
						Node head = null;
						for (int i = 0; i < 10; i++) { head = new Node(i, head); }
						int s = 0;
						while (head != null) { s += head.v; head = head.next; }
						total += s;
					}
					print(total);
				}
			}`,
		"tempsum": `
			class Pair { int a; int b; Pair(int a, int b) { this.a = a; this.b = b; } int sum() { return a + b; } }
			class Main {
				static void main() {
					int s = 0;
					for (int i = 0; i < 300; i++) {
						Pair p = new Pair(i, i * 2);
						s += p.sum();
					}
					print(s);
				}
			}`,
	}
	modes := []vm.Options{
		{Interpret: true},
		{EA: vm.EAOff},
		{EA: vm.EAFlowInsensitive},
		{EA: vm.EAPartial},
		{EA: vm.EAPartial, Speculate: true},
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			var ref []int64
			for i, opts := range modes {
				prog, err := Compile(src, "Main.main")
				if err != nil {
					t.Fatal(err)
				}
				opts.MaxSteps = 50_000_000
				opts.CheckLevel = check.Basic
				opts.CompileThreshold = 3
				machine := vm.New(prog, opts)
				for r := 0; r < 8; r++ {
					if _, err := machine.Run(); err != nil {
						t.Fatalf("mode %d: %v", i, err)
					}
				}
				for m, cerr := range machine.FailedCompilations() {
					t.Fatalf("mode %d: compile %s: %v", i, m.QualifiedName(), cerr)
				}
				if i == 0 {
					ref = machine.Env.Output
					continue
				}
				if len(machine.Env.Output) != len(ref) {
					t.Fatalf("mode %d: output length %d vs %d", i, len(machine.Env.Output), len(ref))
				}
				for j := range ref {
					if machine.Env.Output[j] != ref[j] {
						t.Fatalf("mode %d: output[%d] = %d, want %d", i, j, machine.Env.Output[j], ref[j])
					}
				}
			}
		})
	}
}
