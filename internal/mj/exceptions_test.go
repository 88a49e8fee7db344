package mj

import (
	"strings"
	"testing"

	"pea/internal/check"
	"pea/internal/interp"
	"pea/internal/rt"
	"pea/internal/vm"
)

func TestTryCatchBasic(t *testing.T) {
	wantOutput(t, `
		class Err { int code; Err(int c) { code = c; } }
		class Main {
			static void main() {
				try {
					throw new Err(7);
				} catch (Err e) {
					print(e.code);
				}
				print(1);
			}
		}`,
		7, 1)
}

func TestCatchSubtypeAndOrder(t *testing.T) {
	wantOutput(t, `
		class Err { int code; Err(int c) { code = c; } }
		class Sub extends Err { Sub(int c) { code = c; } }
		class Main {
			static int classify(boolean sub) {
				try {
					if (sub) { throw new Sub(1); }
					throw new Err(2);
				} catch (Sub s) {
					return 10 + s.code;
				} catch (Err e) {
					return 20 + e.code;
				}
			}
			static void main() {
				print(classify(true));
				print(classify(false));
				// A subclass object matches a superclass clause.
				try { throw new Sub(5); } catch (Err e) { print(e.code); }
			}
		}`,
		11, 22, 5)
}

func TestUnmatchedThrowPropagates(t *testing.T) {
	src := `
		class Err { int code; }
		class Other { int x; }
		class Main {
			static void main() {
				try { throw new Err(); } catch (Other o) { print(0); }
			}
		}`
	prog, err := Compile(src, "Main.main")
	if err != nil {
		t.Fatal(err)
	}
	env := rt.NewEnv(prog, 1)
	_, err = interp.New(env).Run()
	if err == nil || !strings.Contains(err.Error(), "uncaught exception Err") {
		t.Fatalf("got %v, want uncaught exception Err", err)
	}
	if len(env.Output) != 0 {
		t.Fatalf("catch body ran: output %v", env.Output)
	}
}

func TestFinallyNormalPath(t *testing.T) {
	wantOutput(t, `
		class Main {
			static void main() {
				try { print(1); } finally { print(2); }
				print(3);
			}
		}`,
		1, 2, 3)
}

func TestFinallyOnThrowThenOuterCatch(t *testing.T) {
	wantOutput(t, `
		class Err { int code; Err(int c) { code = c; } }
		class Main {
			static void main() {
				try {
					try { throw new Err(5); } finally { print(1); }
				} catch (Err e) {
					print(e.code);
				}
			}
		}`,
		1, 5)
}

func TestFinallyRunsForThrowInCatch(t *testing.T) {
	wantOutput(t, `
		class Err { int code; Err(int c) { code = c; } }
		class Main {
			static void main() {
				try {
					try {
						throw new Err(1);
					} catch (Err e) {
						throw new Err(2);
					} finally {
						print(7);
					}
				} catch (Err e) {
					print(e.code);
				}
			}
		}`,
		7, 2)
}

func TestFinallyOnReturnPath(t *testing.T) {
	wantOutput(t, `
		class Main {
			static int f() {
				try { return 1; } finally { print(9); }
			}
			static void main() { print(f()); }
		}`,
		9, 1)
}

func TestReturnInFinallyWins(t *testing.T) {
	wantOutput(t, `
		class Main {
			static int g() {
				try { return 1; } finally { return 2; }
			}
			static void main() { print(g()); }
		}`,
		2)
}

func TestBreakAndContinueCrossFinally(t *testing.T) {
	wantOutput(t, `
		class Main {
			static void main() {
				for (int i = 0; i < 5; i++) {
					try {
						if (i == 1) { continue; }
						if (i == 3) { break; }
						print(i);
					} finally {
						print(10 + i);
					}
				}
				print(99);
			}
		}`,
		0, 10, 11, 2, 12, 13, 99)
}

func TestNestedFinallyOnReturn(t *testing.T) {
	wantOutput(t, `
		class Main {
			static int h() {
				try {
					try { return 1; } finally { print(1); }
				} finally {
					print(2);
				}
			}
			static void main() { print(h()); }
		}`,
		1, 2, 1)
}

// TestIntrinsicTrapRunsFinally pins the documented approximation: a finally
// observes intrinsic traps (the catch-all handler binds null), and the
// rethrow after the finally surfaces as a fresh "null throw" rather than the
// original trap reason.
func TestIntrinsicTrapRunsFinally(t *testing.T) {
	src := `
		class Main {
			static int zero() { return 0; }
			static void main() {
				try { print(1 / zero()); } finally { print(2); }
			}
		}`
	prog, err := Compile(src, "Main.main")
	if err != nil {
		t.Fatal(err)
	}
	env := rt.NewEnv(prog, 1)
	_, err = interp.New(env).Run()
	if err == nil || !strings.Contains(err.Error(), "null throw") {
		t.Fatalf("got %v, want null throw", err)
	}
	if len(env.Output) != 1 || env.Output[0] != 2 {
		t.Fatalf("finally did not run exactly once: output %v", env.Output)
	}
}

func TestSynchronizedInsideTry(t *testing.T) {
	wantOutput(t, `
		class Lock { int x; }
		class Main {
			static int f(Lock l) {
				try {
					synchronized (l) { return 1; }
				} finally {
					print(8);
				}
			}
			static void main() { print(f(new Lock())); }
		}`,
		8, 1)
}

// tryCatchAllocSrc allocates a Box before a try, mutates it inside, and
// only reads it (plus the caught exception) in the handler. The Box never
// escapes, so PEA keeps it virtual on the hot non-throwing path AND in the
// handler; only the thrown Err objects are ever heap-allocated.
const tryCatchAllocSrc = `
class Box { int v; Box(int v) { this.v = v; } }
class Err { int code; Err(int c) { code = c; } }
class Main {
	static int work(int i) {
		Box b = new Box(i);
		try {
			if (i % 100 == 99) { throw new Err(i); }
			b.v += 1;
		} catch (Err e) {
			return b.v + e.code;
		}
		return b.v;
	}
	static void main() {
		int s = 0;
		for (int i = 0; i < 200; i++) { s += work(i); }
		print(s);
	}
}
`

// TestTryCatchScalarReplacement runs the handler-aware PEA acceptance
// program through the full VM: outputs must agree between EA modes, and
// with partial escape analysis the per-iteration Box must vanish even
// though a catch handler reads it on the rare throwing path.
func TestTryCatchScalarReplacement(t *testing.T) {
	run := func(mode vm.EAMode) *vm.VM {
		prog, err := Compile(tryCatchAllocSrc, "Main.main")
		if err != nil {
			t.Fatal(err)
		}
		machine := vm.New(prog, vm.Options{EA: mode, CompileThreshold: 10, CheckLevel: check.Basic, MaxSteps: 20_000_000})
		main := prog.Main
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

	if len(noea.Env.Output) != len(peavm.Env.Output) {
		t.Fatal("outputs diverge")
	}
	for i := range noea.Env.Output {
		if noea.Env.Output[i] != peavm.Env.Output[i] {
			t.Fatalf("output[%d]: %d vs %d", i, noea.Env.Output[i], peavm.Env.Output[i])
		}
	}
	// Baseline: 200 Boxes + 2 Errs per run. PEA: the Box stays virtual on
	// every path (the handler reads it scalar-replaced), so only the two
	// thrown Errs remain.
	if base := noea.Env.Stats.Allocations; base != 202*10 {
		t.Fatalf("baseline allocations = %d, want 2020", base)
	}
	if pea := peavm.Env.Stats.Allocations; pea != 2*10 {
		t.Fatalf("PEA allocations = %d, want 20 (thrown Errs only)", pea)
	}
}

func TestTryParseAndCheckErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"bare try", `class Main { static void main() { try { } } }`,
			"at least one catch clause or a finally block"},
		{"unknown catch class", `class Main { static void main() { try { } catch (Nope e) { } } }`,
			"catch of unknown class Nope"},
		{"catch var scoped", `class Err { int c; }
			class Main { static void main() { try { } catch (Err e) { } print(e.c); } }`,
			"undefined: e"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src, "Main.main")
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("got %v, want %q", err, tc.want)
			}
		})
	}
}
