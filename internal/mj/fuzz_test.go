package mj

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzMiniJava: Compile takes any bytes to a program or to a positioned
// *Error, and never panics. The seeds are every example and frozen
// benchmark program and one source per way of nesting too deep.
func FuzzMiniJava(f *testing.F) {
	for _, pattern := range []string{"../../examples/*.mj", "../../benchmarks/programs/*.mj"} {
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			f.Fatalf("no programs match %s (%v)", pattern, err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(string(src))
		}
	}
	for _, tc := range tooDeep() {
		f.Add(tc.src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// No entry point: a missing Main.main is the linker's error, not
		// the front end's.
		prog, err := Compile(src, "")
		if err == nil {
			if prog == nil {
				t.Fatal("no program and no error")
			}
			return
		}
		if _, ok := err.(*Error); !ok {
			t.Fatalf("%T %v, want a *Error", err, err)
		}
	})
}
