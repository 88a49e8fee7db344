package vm

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pea/internal/bc"
	"pea/internal/broker"
	"pea/internal/check"
	"pea/internal/exec"
)

// ladderTrigger is both hotness thresholds of the ladder tests, so one set of
// expectations serves a method entry and a loop header.
const ladderTrigger = 4

// ladderProgram links scalarLoopSrc and returns Main.run with the bytecode
// index of its loop header, found the way the VM finds it: by interpreting.
func ladderProgram(t *testing.T) (*bc.Program, *bc.Method, int) {
	t.Helper()
	prog, err := mjCompile(scalarLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	m := prog.ClassByName("Main").MethodByName("run")
	ref := New(prog, Options{Interpret: true})
	if _, err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	for pc := range m.Code {
		if ref.Interp.Profile.BackEdges(m, pc) > 0 {
			return prog, m, pc
		}
	}
	t.Fatal("Main.run took no back edge")
	return nil, nil, 0
}

// visit does what the execution thread does when it reaches u — a call of
// the method, or a back edge to the loop header: advance the unit's hotness
// counter, then take installed code or climb the ladder. It returns the
// counter's new value.
func visit(machine *VM, u *unit) (exec.Code, int64) {
	if u.isOSR() {
		machine.Interp.Profile.CountBackEdge(u.m, u.entryBCI)
	} else {
		machine.Interp.Profile.CountInvocation(u.m)
	}
	count := machine.hotness(u)
	c := u.installed()
	if c == nil {
		c = machine.tierUp(u, count)
	}
	return c, count
}

// step is visit followed by a wait for the background broker, so the caller
// sees the visit's whole effect.
func step(machine *VM, u *unit) (exec.Code, int64) {
	c, count := visit(machine, u)
	machine.DrainJIT()
	return c, count
}

// visitUntilInstalled visits u until it has code, at most limit times.
func visitUntilInstalled(t *testing.T, machine *VM, u *unit, limit int) {
	t.Helper()
	for i := 0; i < limit && u.installed() == nil; i++ {
		step(machine, u)
	}
	if u.installed() == nil {
		t.Fatalf("%s has no code after %d visits", u.name(), limit)
	}
}

// TestTierUpLadder drives the one tier-up ladder over both kinds of
// compilation unit, on a synchronous and on a one-worker broker: every rung
// must behave the same for a method entry counted in invocations and a loop
// header counted in back edges.
func TestTierUpLadder(t *testing.T) {
	prog, m, header := ladderProgram(t)
	kinds := []struct {
		name     string
		entryBCI int
		// buildPoint is the fault point only this kind's compiles pass.
		buildPoint string
	}{
		{"entry", broker.NoOSR, "build"},
		{"loop", header, "build-osr"},
	}
	brokers := []struct {
		name    string
		workers int
	}{{"sync", 0}, {"worker", 1}}
	newBroker := func(t *testing.T, bo broker.Options) *broker.Broker {
		bo.Check = check.Basic
		b := broker.New(bo)
		t.Cleanup(b.Close)
		return b
	}
	opts := func(jit *broker.Broker) Options {
		return Options{EA: EAPartial, CompileThreshold: ladderTrigger, OSRThreshold: ladderTrigger,
			CheckLevel: check.Basic, JIT: jit}
	}

	for _, bk := range brokers {
		for _, kind := range kinds {
			t.Run(bk.name+"/"+kind.name, func(t *testing.T) {
				t.Run("memory tier", func(t *testing.T) {
					shared := newBroker(t, broker.Options{Workers: bk.workers})
					cold := New(prog, opts(shared))
					u := cold.unit(m, kind.entryBCI)
					// A miss waits for the trigger.
					for i := 1; i < ladderTrigger; i++ {
						if c, _ := step(cold, u); c != nil || u.installed() != nil {
							t.Fatalf("visit %d: code below the trigger with an empty cache", i)
						}
					}
					if n := shared.Stats().Submitted; n != 0 {
						t.Fatalf("%d submissions below the trigger", n)
					}
					step(cold, u)
					if st := cold.Stats(); u.installed() == nil || st.WarmInstalls != 0 || st.PipelineCompiles != 1 {
						t.Fatalf("at the trigger: installed=%v, %+v; want one pipeline compile", u.installed() != nil, st)
					}
					// A hit installs at the first visit.
					warm := New(prog, opts(shared))
					wu := warm.unit(m, kind.entryBCI)
					if c, count := step(warm, wu); c == nil || count != 1 {
						t.Fatalf("first visit of a cached unit: code=%v at count %d", c != nil, count)
					}
					st := warm.Stats()
					if st.WarmInstalls != 1 || st.PipelineCompiles != 0 || st.CompiledMethods+st.OSRCompilations != 1 {
						t.Fatalf("warm VM: %+v, want one install, cache-first", st)
					}
				})

				t.Run("transient failure", func(t *testing.T) {
					o := opts(newBroker(t, broker.Options{Workers: bk.workers}))
					o.CompileDeadline = time.Nanosecond
					machine := New(prog, o)
					u := machine.unit(m, kind.entryBCI)
					var count int64
					for i := 0; i < ladderTrigger; i++ {
						_, count = step(machine, u)
					}
					st := machine.Stats()
					if st.TransientFailures != 1 || st.Rearms != 1 || u.installed() != nil {
						t.Fatalf("deadline overrun: installed=%v, %+v; want one transient failure, one re-arm", u.installed() != nil, st)
					}
					if got := u.retryAt.Load(); got != count+ladderTrigger {
						t.Fatalf("re-armed for count %d, want %d", got, count+ladderTrigger)
					}
					if u.failure.Load() != nil || len(machine.FailedCompilations()) != 0 {
						t.Fatal("transient failure was recorded as permanent")
					}
					// Inside the backoff window nothing is submitted.
					for i := 1; i < ladderTrigger; i++ {
						step(machine, u)
					}
					if n := machine.Stats().TransientFailures; n != 1 {
						t.Fatalf("%d compile attempts inside the backoff window", n-1)
					}
				})

				t.Run("permanent failure", func(t *testing.T) {
					jit := newBroker(t, broker.Options{Workers: bk.workers,
						InjectFault: panicAt(kind.buildPoint, "")})
					if kind.entryBCI == broker.NoOSR {
						// The cache holds the loop's artifact and not the
						// entry's, for the loop to be tempted by afterwards
						// (the loop's compile passes build-osr, not build).
						seed := New(prog, opts(jit))
						visitUntilInstalled(t, seed, seed.unit(m, header), ladderTrigger)
					}
					machine := New(prog, opts(jit))
					entry, loop := machine.unit(m, broker.NoOSR), machine.unit(m, header)
					u := machine.unit(m, kind.entryBCI)
					for i := 0; i < 3*ladderTrigger; i++ {
						step(machine, u)
					}
					if n := machine.Broker().Stats().Panics; n != 1 {
						t.Fatalf("%d panicking compiles, want 1: a blacklisted unit must not be resubmitted", n)
					}
					var pe *broker.PanicError
					if u.installed() != nil || !errors.As(machine.OSRCompileError(m, kind.entryBCI), &pe) {
						t.Fatalf("failed unit: installed=%v, error %v", u.installed() != nil, machine.OSRCompileError(m, kind.entryBCI))
					}
					failed := machine.FailedCompilations()
					if failed[m] == nil {
						t.Fatal("FailedCompilations does not list the method")
					}
					if kind.entryBCI == broker.NoOSR {
						// Recorded on the entry alone, but the method's loops
						// are not tried any more — not even from the cache.
						if machine.OSRCompileError(m, header) != nil || strings.Contains(failed[m].Error(), "osr@") {
							t.Fatalf("entry failure recorded on the loop: %v", failed)
						}
						for i := 0; i < 2*ladderTrigger; i++ {
							step(machine, loop)
						}
						if st := machine.Stats(); loop.installed() != nil || st.WarmInstalls != 0 || st.OSRRequests != 0 {
							t.Fatalf("loop of a method whose entry failed: installed=%v, %+v", loop.installed() != nil, st)
						}
						return
					}
					// A failed loop leaves the method's entry alone.
					if machine.CompileError(m) != nil || !strings.Contains(failed[m].Error(), "osr@") {
						t.Fatalf("loop failure not reported as osr@<bci> of the method: %v", failed)
					}
					visitUntilInstalled(t, machine, entry, ladderTrigger)
					// The standard entry's error wins the method's one slot.
					boom := errors.New("entry boom")
					machine.recordFailure(m, machine.cacheKey(m, broker.NoOSR), boom)
					if got := machine.FailedCompilations()[m]; got != boom {
						t.Fatalf("FailedCompilations reports %v, want the standard entry's error", got)
					}
				})
			})
		}

		t.Run(bk.name+"/invalidate", func(t *testing.T) {
			machine := New(prog, opts(newBroker(t, broker.Options{Workers: bk.workers})))
			entry, loop := machine.unit(m, broker.NoOSR), machine.unit(m, header)
			visitUntilInstalled(t, machine, entry, ladderTrigger)
			visitUntilInstalled(t, machine, loop, ladderTrigger)
			before := machine.Stats()

			machine.Invalidate(m, "test")
			if entry.installed() != nil || loop.installed() != nil {
				t.Fatal("invalidation left code installed")
			}
			if st := machine.Stats(); st.InvalidatedMethods != 1 || !machine.methods[m.ID].noSpec.Load() {
				t.Fatalf("invalidation: %+v, noSpec=%v", st, machine.methods[m.ID].noSpec.Load())
			}
			// Both kinds ask the memory tier again, and find what they put there.
			for _, u := range []*unit{entry, loop} {
				if c, _ := step(machine, u); c == nil {
					t.Fatalf("%s: no code at the first visit after invalidation", u.name())
				}
			}
			after := machine.Stats()
			if after.WarmInstalls != before.WarmInstalls+2 || after.PipelineCompiles != before.PipelineCompiles {
				t.Fatalf("after invalidation: %+v → %+v, want two cache-first installs and no compile", before, after)
			}
		})
	}

	// A rejected submission needs a queue to be full: one worker parked in a
	// compile, one submission waiting behind it.
	for _, kind := range kinds {
		t.Run("rejected/"+kind.name, func(t *testing.T) {
			jit := newBroker(t, broker.Options{Workers: 1, QueueCap: 1})
			// started has room for both fillers: only the first is waited for.
			started, release := make(chan struct{}, 2), make(chan struct{})
			// Registered after the broker's Close, so run before it: a failed
			// assertion must not leave Close waiting for the parked worker.
			var releaseOnce sync.Once
			unpark := func() { releaseOnce.Do(func() { close(release) }) }
			t.Cleanup(unpark)
			filler := &broker.Hooks{Compile: func(*bc.Method, broker.Key) (broker.Artifact, error) {
				started <- struct{}{}
				<-release
				return nil, errors.New("filler")
			}}
			fill := func(name string) {
				fm := prog.ClassByName("Pair").MethodByName(name)
				if !jit.Submit(fm, 1, broker.Key{Name: fm.QualifiedName(), EntryBCI: broker.NoOSR}, filler) {
					t.Fatalf("filler %s rejected", name)
				}
			}
			fill("sum")
			<-started
			fill("<init>")

			machine := New(prog, opts(jit))
			u := machine.unit(m, kind.entryBCI)
			// Every eligible visit is bounced and re-arms trigger<<n further
			// out, n capped at maxRearmShift; visits in between submit nothing.
			for n := int32(1); n <= maxRearmShift+2; n++ {
				var count int64
				for u.retryN.Load() < n {
					rejected := jit.Stats().Rejected
					_, count = visit(machine, u)
					if bounced := jit.Stats().Rejected != rejected; bounced != (u.retryN.Load() == n) {
						t.Fatalf("count %d: submission bounced=%v, re-arms %d", count, bounced, u.retryN.Load())
					}
				}
				shift := min(int64(n-1), maxRearmShift)
				if got := u.retryAt.Load(); got != count+ladderTrigger<<shift {
					t.Fatalf("re-arm %d at count %d: next attempt at %d, want %d", n, count, got, count+ladderTrigger<<shift)
				}
			}
			if st := machine.Stats(); st.Rearms != maxRearmShift+2 || u.failure.Load() != nil {
				t.Fatalf("%d re-arms, failure %v", st.Rearms, u.failure.Load())
			}
			// Once the queue drains the unit compiles, and an install clears
			// the backoff.
			unpark()
			jit.Drain()
			visitUntilInstalled(t, machine, u, int(u.retryAt.Load()))
			if u.retryN.Load() != 0 || u.retryAt.Load() != 0 {
				t.Fatalf("backoff after an install: retryN=%d retryAt=%d", u.retryN.Load(), u.retryAt.Load())
			}
		})
	}
}
