package broker

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"pea/internal/bc"
	"pea/internal/budget"
)

// TestSyncPanicContained pins the containment contract in synchronous
// mode: a panicking compile callback must not unwind through Submit. It
// is converted into a *PanicError (with the panicking goroutine's stack)
// delivered to the Fail callback, Install never runs, and Stats.Panics
// counts it.
func TestSyncPanicContained(t *testing.T) {
	ms := testMethods(t, 1)
	var failed error
	h := &Hooks{
		Compile: func(m *bc.Method, k Key) (Artifact, error) { panic("compiler bug") },
		Install: func(m *bc.Method, k Key, a Artifact, fromCache bool) { t.Error("panicked compile installed") },
		Fail:    func(m *bc.Method, k Key, err error) { failed = err },
	}
	b := New(Options{})
	if !b.Submit(ms[0], 1, key(ms[0]), h) {
		t.Fatal("synchronous submit rejected")
	}
	var pe *PanicError
	if !errors.As(failed, &pe) {
		t.Fatalf("failure is %T (%v), want *PanicError", failed, failed)
	}
	if pe.Method != "C.m0" || pe.Value != "compiler bug" {
		t.Fatalf("PanicError = %+v", pe)
	}
	if !strings.Contains(pe.Stack, "runCompile") {
		t.Fatalf("captured stack does not show the fault boundary:\n%s", pe.Stack)
	}
	st := b.Stats()
	if st.Panics != 1 || st.Failed != 1 || st.Installed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestAsyncPanicDoesNotKillWorker: a worker that contains a panic must
// keep serving the queue — later submissions still compile, the in-flight
// entry for the victim is cleared (Pending false), and Drain returns.
func TestAsyncPanicDoesNotKillWorker(t *testing.T) {
	ms := testMethods(t, 4)
	victim := ms[1]
	var mu sync.Mutex
	installed := map[*bc.Method]bool{}
	var failures []error
	h := &Hooks{
		Compile: func(m *bc.Method, k Key) (Artifact, error) {
			if m == victim {
				panic("boom on " + m.Name)
			}
			return mustBuild(m), nil
		},
		Install: func(m *bc.Method, k Key, a Artifact, fromCache bool) {
			mu.Lock()
			installed[m] = true
			mu.Unlock()
		},
		Fail: func(m *bc.Method, k Key, err error) {
			mu.Lock()
			failures = append(failures, err)
			mu.Unlock()
		},
	}
	b := New(Options{Workers: 1})
	defer b.Close()
	for _, m := range ms {
		if !b.Submit(m, 1, key(m), h) {
			t.Fatalf("submit %s rejected", m.Name)
		}
	}
	b.Drain() // must return even though one compile panicked
	mu.Lock()
	defer mu.Unlock()
	for _, m := range ms {
		if m == victim {
			if installed[m] {
				t.Fatal("victim installed")
			}
			continue
		}
		if !installed[m] {
			t.Fatalf("%s not installed — worker died?", m.Name)
		}
	}
	if len(failures) != 1 {
		t.Fatalf("failures = %v, want exactly the victim", failures)
	}
	var pe *PanicError
	if !errors.As(failures[0], &pe) {
		t.Fatalf("failure is %T, want *PanicError", failures[0])
	}
	if b.Pending(victim, NoOSR) {
		t.Fatal("victim still marked in flight after containment")
	}
	if st := b.Stats(); st.Panics != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestInstallPointPanicContained: a panic injected after a successful
// compile (the FaultInstall point) is still inside the fault boundary.
func TestInstallPointPanicContained(t *testing.T) {
	ms := testMethods(t, 1)
	var failed error
	h := &Hooks{
		Compile: func(m *bc.Method, k Key) (Artifact, error) { return mustBuild(m), nil },
		Install: func(m *bc.Method, k Key, a Artifact, fromCache bool) {
			t.Error("install ran past an install-point panic")
		},
		Fail: func(m *bc.Method, k Key, err error) { failed = err },
	}
	b := New(Options{
		InjectFault: func(point, method string) {
			if point == FaultInstall {
				panic("injected at install")
			}
		},
	})
	b.Submit(ms[0], 1, key(ms[0]), h)
	var pe *PanicError
	if !errors.As(failed, &pe) {
		t.Fatalf("failure is %T (%v), want *PanicError", failed, failed)
	}
	if st := b.Stats(); st.Panics != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestTransientClassification pins which failures re-arm and which
// blacklist: only budget overruns are transient.
func TestTransientClassification(t *testing.T) {
	budErr := &budget.Err{Kind: "deadline", Phase: "opt", Method: "C.m", Limit: 1, Actual: 2}
	if !Transient(budErr) {
		t.Fatal("budget overrun must classify as transient")
	}
	if Transient(&PanicError{Method: "C.m", Value: "boom"}) {
		t.Fatal("a contained panic is a permanent failure")
	}
	if Transient(errors.New("pipeline error")) {
		t.Fatal("ordinary pipeline errors are permanent")
	}
	if Transient(nil) {
		t.Fatal("nil error is not transient")
	}
}

// TestParseFault covers the PEA_FAULT spec grammar.
func TestParseFault(t *testing.T) {
	for _, bad := range []string{"", "compile", "compile:explode", "compile:panic:0", "compile:panic:x", "compile:delay:1:notaduration"} {
		if _, err := ParseFault(bad); err == nil {
			t.Errorf("ParseFault(%q) accepted a bad spec", bad)
		}
	}

	// every=3: the hook fires on the 3rd and 6th visits only.
	hook, err := ParseFault("compile:panic:3")
	if err != nil {
		t.Fatal(err)
	}
	fires := 0
	visit := func(point string) (panicked bool) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		hook(point, "C.m")
		return false
	}
	for i := 1; i <= 6; i++ {
		if visit("compile") {
			fires++
		}
	}
	if fires != 2 {
		t.Fatalf("every=3 fired %d times in 6 visits, want 2", fires)
	}
	if visit("install") {
		t.Fatal("hook fired at a different point")
	}

	// Method filter: only matching methods panic (and non-matching
	// visits do not advance the counter window deterministically — they
	// are filtered before counting).
	hook, err = ParseFault("pea:panic:1:Loop")
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("filtered hook did not fire on matching method")
			}
		}()
		hook("pea", "Main.hotLoop")
	}()
	hook("pea", "Main.other") // must not panic

	// Delay: stalls but never fails.
	hook, err = ParseFault("compile:delay:1:1ms")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	hook("compile", "C.m")
	if time.Since(start) < time.Millisecond {
		t.Fatal("delay action did not sleep")
	}
}
