package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// irdump runs the command with args and returns what it printed to stdout.
func irdump(t *testing.T, args ...string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("irdump %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return stdout.String()
}

// TestReadmeCommandsGolden pins the README's three irdump commands — the
// paper's Figure 2, Listing 6 and Figure 8 — byte for byte.
func TestReadmeCommandsGolden(t *testing.T) {
	for _, c := range []struct{ golden, example, phase string }{
		{"cachekey-inlined", "cachekey", "inlined"},
		{"cachekey-pea", "cachekey", "pea"},
		{"framestate-pea", "framestate", "pea"},
	} {
		t.Run(c.golden, func(t *testing.T) {
			got := irdump(t, "-example", c.example, "-phase", c.phase)
			path := filepath.Join("testdata", c.golden+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("irdump -example %s -phase %s differs from %s:\n%s", c.example, c.phase, path, got)
			}
		})
	}
}

// TestDumpIsTheVMCompile: irdump prints the graph the VM compiles. callheavy's
// Point reaches a non-inlined call whose summary proves it unobserved, so
// the VM keeps it virtual; a pipeline without the escape summaries
// materializes it ahead of the call.
func TestDumpIsTheVMCompile(t *testing.T) {
	got := irdump(t, "-file", "../../examples/callheavy.mj", "-method", "Main.run", "-phase", "final")
	if !strings.Contains(got, "Invoke") {
		t.Fatalf("the final graph of Main.run has no call left:\n%s", got)
	}
	if strings.Contains(got, "Materialize") {
		t.Fatalf("the final graph of Main.run materializes:\n%s", got)
	}
}

// TestTraceIsThePEAPhase: -trace prints the PEA phase's events and nothing
// of the phases around it.
func TestTraceIsThePEAPhase(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-example", "cachekey", "-trace"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
	for _, want := range []string{"virtualize ", "lock_elide ", "materialize "} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("no %s event in -trace output", strings.TrimSpace(want))
		}
	}
	for _, l := range lines {
		if !strings.Contains(l, " phase=pea ") {
			t.Errorf("-trace line outside the PEA phase: %s", l)
		}
	}
}
