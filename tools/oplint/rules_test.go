package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestRules runs the switch check and every row of the rule table over the
// module, which must be clean, and over testdata/violations, a module of
// stub packages at the real import paths where every entry of every row
// and the switch check must report. A row that stops matching anything
// fails here instead of passing silently.
func TestRules(t *testing.T) {
	const root = "../.."
	watch(t, root)
	m, err := load(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m.check() {
		t.Error(f)
	}

	v, err := load("testdata/violations")
	if err != nil {
		t.Fatal(err)
	}
	if n := len(v.switches()); n != 1 {
		t.Errorf("switch check: %d findings in testdata/violations, want 1", n)
	}
	type entry struct {
		r    *rule
		what string
	}
	reported := make(map[entry]bool)
	for _, f := range v.apply(rules) {
		reported[entry{f.rule, f.what}] = true
		for _, at := range f.at {
			// clean.go and clean_test.go hold what a rule must not count:
			// comments, allowed imports, test-file literals.
			if strings.Contains(at, "clean") {
				t.Errorf("%s: counts %s", f, at)
			}
		}
	}
	for i := range rules {
		r := &rules[i]
		for _, w := range r.what {
			if !reported[entry{r, w}] {
				t.Errorf("rule of PR %d: %s %q reports nothing in testdata/violations", r.pr, r.kind, w)
			}
		}
	}
}

// watch lists every directory under root, so that go test's result cache,
// which hashes the directories a test opens, notices a file added or
// changed anywhere in the module.
func watch(t *testing.T, root string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if d != nil && d.IsDir() && d.Name() == ".git" {
			return filepath.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
