package main

import (
	"go/importer"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const fixture = `package fix

type Op uint8

const (
	OpA Op = iota
	OpB
	OpC
	opSentinel // unexported: never required
)

func flagged(o Op) int {
	switch o { // missing OpC, not ignored: must be reported
	case OpA:
		return 1
	case OpB:
		return 2
	default:
		return 0 // a default does not excuse the missing case
	}
}

func silenced(o Op) int {
	// oplint:ignore — partial on purpose; the explanation may run
	// across several lines and still silence the switch below.
	switch o {
	case OpA:
		return 1
	}
	return 0
}

func exhaustive(o Op) int {
	switch o {
	case OpA, OpB:
		return 1
	case OpC:
		return 2
	}
	return 0
}

func tagless(o Op) int {
	switch { // no tag: out of scope
	case o == OpA:
		return 1
	}
	return 0
}
`

func TestCheckFilesOnFixture(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fix.go")
	if err := os.WriteFile(path, []byte(fixture), 0o644); err != nil {
		t.Fatal(err)
	}

	// The fixture package typechecks under the path "fix"; register its
	// enum for the duration of the test.
	targets["fix.Op"] = map[string]bool{}
	defer delete(targets, "fix.Op")

	fset := token.NewFileSet()
	p, err := typecheck(fset, "fix", dir, []string{"fix.go"}, importer.Default())
	if err != nil {
		t.Fatal(err)
	}
	diags := checkSwitches(fset, p.files[0], p.info)
	if len(diags) != 1 {
		t.Fatalf("want exactly one diagnostic, got %d: %v", len(diags), diags)
	}
	d := diags[0]
	if !strings.Contains(d, "fix.Op") || !strings.Contains(d, "OpC") {
		t.Fatalf("diagnostic should name the enum and the missing constant: %s", d)
	}
	if strings.Contains(d, "OpA") || strings.Contains(d, "opSentinel") {
		t.Fatalf("diagnostic lists covered or unexported constants: %s", d)
	}
	if !strings.Contains(d, "fix.go:13") {
		t.Fatalf("diagnostic should point at the flagged switch: %s", d)
	}
}
