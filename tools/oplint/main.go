// Command oplint is the repository's structural checker. Run from the
// module root, it type-checks every package of the module and reports:
//
//   - a switch over an opcode enum (pea/internal/ir.Op, pea/internal/bc.Op)
//     that does not name every exported constant. A default clause does not
//     excuse a missing case: defaults are how a new opcode silently falls
//     through a back end. A switch that is partial on purpose carries a
//     `// oplint:ignore` comment on, above or inside it. OpInvalid, ir.Op's
//     poison zero value, is never required.
//   - a row of the rule table (rules.go) whose count in its scope is wrong.
//
// TestRules runs both over the module, so `go test ./...` enforces them.
// oplint uses only the standard library.
package main

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// targets are the enum types whose switches must be exhaustive, keyed by
// "importpath.TypeName", with constants to exclude from the required set.
var targets = map[string]map[string]bool{
	"pea/internal/ir.Op": {"OpInvalid": true},
	"pea/internal/bc.Op": {},
}

func main() {
	m, err := load(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "oplint:", err)
		os.Exit(1)
	}
	findings := m.check()
	for _, f := range findings {
		fmt.Fprintln(os.Stderr, f)
	}
	if len(findings) > 0 {
		os.Exit(2)
	}
}

// listPackage is the subset of `go list -json` output oplint consumes.
type listPackage struct {
	Dir, ImportPath, Export            string
	DepOnly, Standard                  bool
	GoFiles, TestGoFiles, XTestGoFiles []string
	Error                              *struct{ Err string }
}

// A pkg is one package of the module: its build files, type-checked, and
// its test files, parsed only.
type pkg struct {
	path         string
	files, tests []*ast.File
	info         *types.Info
}

// A module is every package under one module root.
type module struct {
	fset *token.FileSet
	pkgs []*pkg
}

// load drives `go list -export -deps ./...` in dir and type-checks every
// package of the module from source against its dependencies' export data.
func load(dir string) (*module, error) {
	cmd := exec.Command("go", "list", "-e", "-json", "-export", "-deps", "./...")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	exports := make(map[string]string)
	var roots []*listPackage
	for dec := json.NewDecoder(strings.NewReader(string(out))); ; {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: %v", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard {
			roots = append(roots, p)
		}
	}

	m := &module{fset: token.NewFileSet()}
	imp := importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	for _, lp := range roots {
		p, err := typecheck(m.fset, lp.ImportPath, lp.Dir, lp.GoFiles, imp)
		if err != nil {
			return nil, err
		}
		if p.tests, err = parseFiles(m.fset, lp.Dir, append(lp.TestGoFiles, lp.XTestGoFiles...)); err != nil {
			return nil, err
		}
		m.pkgs = append(m.pkgs, p)
	}
	return m, nil
}

func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// typecheck parses one package's build files and type-checks them under
// its import path.
func typecheck(fset *token.FileSet, path, dir string, names []string, imp types.Importer) (*pkg, error) {
	files, err := parseFiles(fset, dir, names)
	if err != nil {
		return nil, err
	}
	p := &pkg{path: path, files: files, info: &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Uses:  make(map[*ast.Ident]types.Object),
		Defs:  make(map[*ast.Ident]types.Object),
	}}
	conf := types.Config{Importer: imp, Error: func(error) {}} // the first error is Check's
	if _, err := conf.Check(path, fset, files, p.info); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return p, nil
}

// check runs the switch check and the rule table over the module.
func (m *module) check() []string {
	findings := m.switches()
	for _, f := range m.apply(rules) {
		findings = append(findings, f.String())
	}
	return findings
}

// switches runs the switch check over every package but the enums' own,
// whose predicates (IsTerminator, HasSideEffect, …) are partial by design.
func (m *module) switches() []string {
	var diags []string
	for _, p := range m.pkgs {
		if _, own := targets[p.path+".Op"]; own {
			continue
		}
		for _, f := range p.files {
			diags = append(diags, checkSwitches(m.fset, f, p.info)...)
		}
	}
	return diags
}

// checkSwitches reports non-exhaustive opcode switches in one file.
func checkSwitches(fset *token.FileSet, f *ast.File, info *types.Info) []string {
	ignored := ignoredLines(fset, f)
	var diags []string
	ast.Inspect(f, func(n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		named, _ := info.TypeOf(sw.Tag).(*types.Named)
		if named == nil {
			return true
		}
		key := types.TypeString(named, nil)
		exclude, ok := targets[key]
		if !ok {
			return true
		}
		// A marker on the line above the switch or on any line of it (so
		// it can sit on a default clause) silences it.
		for l := fset.Position(sw.Pos()).Line - 1; l <= fset.Position(sw.End()).Line; l++ {
			if ignored[l] {
				return true
			}
		}
		if missing := missingCases(sw, info, named, exclude); len(missing) > 0 {
			diags = append(diags, fmt.Sprintf(
				"%s: oplint: switch on %s is missing cases %s (add them or comment the switch with // oplint:ignore)",
				fset.Position(sw.Pos()), key, strings.Join(missing, ", ")))
		}
		return true
	})
	return diags
}

// missingCases returns the exported enum constants the switch does not
// name, sorted.
func missingCases(sw *ast.SwitchStmt, info *types.Info, named *types.Named, exclude map[string]bool) []string {
	covered := make(map[string]bool)
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			var id *ast.Ident
			switch e := e.(type) {
			case *ast.Ident:
				id = e
			case *ast.SelectorExpr:
				id = e.Sel
			default:
				continue
			}
			if c, ok := info.Uses[id].(*types.Const); ok && types.Identical(c.Type(), named) {
				covered[c.Name()] = true
			}
		}
	}
	var missing []string
	scope := named.Obj().Pkg().Scope()
	for _, name := range scope.Names() {
		c, ok := scope.Lookup(name).(*types.Const)
		if !ok || !c.Exported() || exclude[name] || covered[name] {
			continue
		}
		if types.Identical(c.Type(), named) {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	return missing
}

// ignoredLines returns the lines of every comment group that carries an
// `oplint:ignore` marker: the whole group counts, so the explanation may
// continue across lines.
func ignoredLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.Contains(c.Text, "oplint:ignore") {
				for l := fset.Position(cg.Pos()).Line; l <= fset.Position(cg.End()).Line; l++ {
					lines[l] = true
				}
			}
		}
	}
	return lines
}
