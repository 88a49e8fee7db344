package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
)

// A kind is what a row of the rule table counts. Build files are
// type-checked; test files are parsed only.
type kind string

const (
	decl     kind = "decl"   // a declaration in any file: Name (any kind, locals too), pkg.Name, pkg.Type.FieldOrMethod
	use      kind = "use"    // a reference resolved through types.Info.Uses in build files: pkg.Name, pkg.Type.FieldOrMethod
	imports  kind = "import" // an import of the path in any file
	flagName kind = "flag"   // the literal first argument of a call into package flag in any file
	lit      kind = "lit"    // a string literal starting with the text in build files; comments never match
	call     kind = "call"   // a method call by name in test files
	pkgPath  kind = "pkg"    // a package of the module at the path or below it
)

// A rule is one row of the table: each entry of what must occur exactly n
// times (0 for "never") in the scope in. A scope entry is a package path,
// pkg/... (the package and those below it), pkg/file.go or pkg.Func
// (pkg.Type.Method); a leading ! excludes; an empty scope is the module.
type rule struct {
	pr   int // the PR that made the rule
	kind kind
	what []string // objects, names, paths or literals, each counted on its own
	in   []string
	n    int
}

var (
	wholeModule = []string{"pea/..."}
	internalCmd = []string{"pea/internal/...", "pea/cmd/..."}
)

// rules are the repository's structural rules. A change that deletes a
// mechanism keeps it deleted by adding a row here; TestRules runs the table
// over the module and over testdata/violations, where every entry of every
// row must be reported.
var rules = []rule{
	// One clock: the cycle model and its harness stay deleted.
	{19, pkgPath, []string{"pea/internal/cost", "pea/cmd/peabench"}, wholeModule, 0},
	{19, imports, []string{"pea/internal/cost"}, wholeModule, 0},
	{19, decl, []string{"pea/internal/rt.Env.Cycles"}, wholeModule, 0},
	// Guest operations are defined in internal/rt: no engine spells a trap.
	{21, lit, []string{"null dereference in", "null receiver calling", "null throw", "negative array size",
		"division by zero", "monitor exit on unlocked"},
		[]string{"pea/internal/interp/...", "pea/internal/exec/...", "pea/internal/vm/...", "pea/internal/opt/..."}, 0},
	// One way to hand a VM its broker.
	{21, decl, []string{"SubmitHooks", "resolveHooks", "JITWorkers", "JITQueueCap", "pea/internal/vm.Options.Store"}, wholeModule, 0},
	// The mid-end stays linear: no string-keyed value table, no map of use counts.
	{22, decl, []string{"UsageCounts", "valueKey"}, wholeModule, 0},
	{22, use, []string{"fmt.Sprintf"}, []string{"pea/internal/opt/gvn.go", "pea/internal/opt/dce.go"}, 0},
	// One tier-up table and ladder, five knobs fewer.
	{24, decl, []string{"osrSite", "failKey", "rearmOSR", "osrRetryAt", "osrRetryN", "osrFailed", "osrCodeCopy",
		"hasFailed", "warmProbed", "MaxVirtualArrayLength", "MaxPrograms"}, internalCmd, 0},
	// One event stream: the second recorder stays deleted; only obs imports the ring.
	{26, decl, []string{"pea/internal/broker.Hooks.Flight", "pea/internal/vm.Options.Flight", "pea/internal/pea.Config.Flight",
		"pea/internal/exec.Engine.Sink", "flightLine", "ingestFlight"}, internalCmd, 0},
	{26, imports, []string{"pea/internal/obs/flight"}, []string{"pea/internal/...", "pea/cmd/...", "!pea/internal/obs/..."}, 0},
	// Summaries are computed, not stored.
	{27, decl, []string{"PutSummaries", "LoadSummaries", "summariesID", "sumFlight", "sumFlightMu", "summaryCall",
		"SummaryHits", "CountCallSite", "MonomorphicTarget", "ReturnsParam"}, internalCmd, 0},
	{27, decl, []string{"DecodeJSON"}, []string{"pea/internal/summary/..."}, 0},
	// Metrics are a fold of the stream: no hand-bumped counter or gauge, one
	// fault hook, one step counter.
	{29, decl, []string{"pea/internal/obs.Sink.Metrics", "SetGauge", "GaugeBrokerCacheSize", "GaugeBrokerQueueDepth",
		"GaugeBrokerQueueHighWater", "GaugeBrokerWorkersBusy", "ObservePhase", "RemoveBackend", "sameBackend",
		"pea/internal/interp.Interp.MaxSteps", "pea/internal/exec.Engine.MaxSteps"}, internalCmd, 0},
	{29, flagName, []string{"trace-chrome"}, internalCmd, 0},
	{29, decl, []string{"InjectFault"}, []string{"pea/internal/...", "pea/cmd/...", "!pea/internal/broker"}, 0},
	{29, use, []string{"pea/internal/broker.Options.InjectFault"}, []string{"!pea/internal/broker"}, 0},
	// Summaries are always on.
	{30, decl, []string{"pea/internal/opt.Inliner.score", "pea/internal/serve.Options.Summaries"}, wholeModule, 0},
	{30, flagName, []string{"summaries"}, []string{"pea/cmd/..."}, 0},
	// One Table 1 harness.
	{31, decl, []string{"measure", "setupWorkload", "BenchmarkTable1", "BenchmarkTable1DaCapo", "BenchmarkTable1Scala",
		"BenchmarkTable1SpecJBB", "kindRetired"}, wholeModule, 0},
	{31, call, []string{"Source"}, wholeModule, 0},
	// One compile pipeline: the paper's analysis runs only inside it; the
	// broker's summary tier stays deleted.
	{32, use, []string{"pea/internal/opt.Inliner", "pea/internal/pea.Run", "pea/internal/ea.Run"},
		[]string{"!pea/internal/opt/...", "!pea/internal/vm/...", "!pea/internal/ea/...", "!pea/benchmarks/..."}, 0},
	{32, use, []string{"pea/internal/pea.Run"}, []string{"pea/internal/ea/..."}, 1},
	{32, decl, []string{"summaryCache", "pea/internal/broker.Broker.Summaries"}, wholeModule, 0},
	// The code cache is bounded by bytes; the entry bound survives only as
	// the frozen benchmark's alias.
	{34, decl, []string{"pea/internal/serve.Options.CacheEntries"}, wholeModule, 0},
	{34, flagName, []string{"cache-entries"}, []string{"pea/cmd/..."}, 0},
	{34, decl, []string{"pea/internal/broker.DefaultCacheEntries"}, []string{"pea/internal/broker/cache.go"}, 1},
	{34, use, []string{"pea/internal/broker.DefaultCacheEntries"}, []string{"!pea/benchmarks/..."}, 0},
	// One store handle per directory: only NewStore reads it. One VM call path.
	{35, use, []string{"os.ReadDir"}, []string{"pea/internal/broker/store.go"}, 1},
	{35, use, []string{"os.ReadDir"}, []string{"pea/internal/broker.NewStore"}, 1},
	{35, decl, []string{"refreshLocked", "ReturnsFresh", "interpCallHook", "engineInvoke", "CallHook"}, internalCmd, 0},
	{35, flagName, []string{"jit-async"}, []string{"pea/cmd/..."}, 0},
	// Nothing called them.
	{36, decl, []string{"pea/internal/vm.VM.CompileOSR", "pea/internal/bc.Program.NumStatics"}, wholeModule, 0},
	// PEA finds its first loop header by RPO position; the loop forest nothing
	// read stays deleted.
	{37, decl, []string{"pea/internal/sched.CFG.Loops", "pea/internal/sched.CFG.LoopOf", "pea/internal/sched.Loop",
		"pea/internal/sched.CFG.IsBackEdge", "pea/internal/sched.CFG.LoopHeader", "computeLoops", "loopWithHeader"}, wholeModule, 0},
	// A Substitution is the one way to rewrite uses: no per-edit graph walk
	// beside it.
	{40, decl, []string{"pea/internal/ir.Graph.ReplaceAllUsages"}, wholeModule, 0},
}

// A site is where an occurrence is: its package, file and enclosing
// top-level function ("Func" or "Type.Method"; build files only).
type site struct{ path, file, fn string }

// An occurrence is one thing a row may count.
type occurrence struct {
	kind kind
	name string // the name, path or literal
	qual string // decl and use: pkg.Name or pkg.Type.Name; "" for locals and test files
	site site
	pos  token.Pos
}

// A finding is one entry of a row whose count in scope is wrong.
type finding struct {
	rule *rule
	what string
	at   []string // where it occurs in scope
}

func (f finding) String() string {
	return fmt.Sprintf("oplint: rule of PR %d: %s %q in %v: found %d, want %d %s",
		f.rule.pr, f.rule.kind, f.what, f.rule.in, len(f.at), f.rule.n, strings.Join(f.at, " "))
}

// apply counts every entry of every row over the module.
func (m *module) apply(rules []rule) []finding {
	c := &collector{m: m, occs: make(map[kind][]occurrence), walked: make(map[*types.Package]bool),
		owners: make(map[*types.Var]string)}
	for _, p := range m.pkgs {
		c.add(pkgPath, p.path, "", site{path: p.path}, token.NoPos)
		for _, f := range p.files {
			c.file(p.path, f, p.info, false)
		}
		for _, f := range p.tests {
			c.file(p.path, f, new(types.Info), true)
		}
	}
	var out []finding
	for i := range rules {
		r := &rules[i]
		for _, w := range r.what {
			f := finding{rule: r, what: w}
			for _, o := range c.occs[r.kind] {
				if r.matches(w, o) && r.covers(o.site) {
					at := o.site.path // a package
					if o.pos.IsValid() {
						at = m.fset.Position(o.pos).String()
					}
					f.at = append(f.at, at)
				}
			}
			if len(f.at) != r.n {
				out = append(out, f)
			}
		}
	}
	return out
}

func (r *rule) matches(w string, o occurrence) bool {
	switch {
	case r.kind == lit:
		return strings.HasPrefix(o.name, w)
	case r.kind == pkgPath:
		return o.name == w || strings.HasPrefix(o.name, w+"/")
	case strings.Contains(w, ".") && (r.kind == decl || r.kind == use):
		return o.qual == w
	}
	return o.name == w
}

func (r *rule) covers(s site) bool {
	included, positive := false, false
	for _, e := range r.in {
		if e[0] == '!' {
			if within(e[1:], s) {
				return false
			}
			continue
		}
		positive = true
		included = included || within(e, s)
	}
	return included || !positive
}

// within reports whether the site lies in one scope entry.
func within(e string, s site) bool {
	switch {
	case strings.HasSuffix(e, "/..."):
		p := strings.TrimSuffix(e, "/...")
		return s.path == p || strings.HasPrefix(s.path, p+"/")
	case strings.HasSuffix(e, ".go"):
		return e == s.path+"/"+s.file
	case strings.Contains(e[strings.LastIndex(e, "/")+1:], "."):
		return e == s.path+"."+s.fn
	}
	return e == s.path
}

// A collector gathers every occurrence in the module, by kind.
type collector struct {
	m      *module
	occs   map[kind][]occurrence
	walked map[*types.Package]bool
	owners map[*types.Var]string // struct field -> the named type declaring it
}

func (c *collector) add(k kind, name, qual string, s site, pos token.Pos) {
	c.occs[k] = append(c.occs[k], occurrence{k, name, qual, s, pos})
}

// file collects one file's occurrences. A test file has empty type
// information.
func (c *collector) file(path string, f *ast.File, info *types.Info, test bool) {
	s := site{path: path, file: filepath.Base(c.m.fset.Position(f.Pos()).Filename)}
	for _, spec := range f.Imports {
		c.add(imports, unquote(spec.Path), "", s, spec.Pos())
	}
	declare := func(ids ...*ast.Ident) {
		for _, id := range ids {
			if id != nil && id.Name != "_" {
				c.add(decl, id.Name, c.qualify(info.Defs[id]), s, id.Pos())
			}
		}
	}
	for _, d := range f.Decls {
		s.fn = ""
		if fd, ok := d.(*ast.FuncDecl); ok {
			s.fn = strings.TrimPrefix(c.qualify(info.Defs[fd.Name]), path+".")
		}
		ast.Inspect(d, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ImportSpec:
				return false
			case *ast.FuncDecl:
				declare(n.Name)
			case *ast.TypeSpec:
				declare(n.Name)
			case *ast.ValueSpec:
				declare(n.Names...)
			case *ast.Field:
				declare(n.Names...)
			case *ast.AssignStmt:
				for _, e := range n.Lhs {
					if id, ok := e.(*ast.Ident); ok && n.Tok == token.DEFINE {
						declare(id)
					}
				}
			case *ast.RangeStmt:
				if n.Tok == token.DEFINE {
					k, _ := n.Key.(*ast.Ident)
					v, _ := n.Value.(*ast.Ident)
					declare(k, v)
				}
			case *ast.Ident:
				if q := c.qualify(info.Uses[n]); q != "" {
					c.add(use, n.Name, q, s, n.Pos())
				}
			case *ast.BasicLit:
				if !test && n.Kind == token.STRING {
					c.add(lit, unquote(n), "", s, n.Pos())
				}
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					break
				}
				if test {
					c.add(call, sel.Sel.Name, "", s, sel.Sel.Pos())
				}
				// A call into package flag; in a test file, through an
				// identifier named flag.
				obj := info.Uses[sel.Sel]
				x, _ := sel.X.(*ast.Ident)
				isFlag := obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "flag" || test && x != nil && x.Name == "flag"
				if len(n.Args) > 0 && isFlag {
					if l, ok := n.Args[0].(*ast.BasicLit); ok && l.Kind == token.STRING {
						c.add(flagName, unquote(l), "", s, n.Pos())
					}
				}
			}
			return true
		})
	}
}

func unquote(l *ast.BasicLit) string {
	if s, err := strconv.Unquote(l.Value); err == nil {
		return s
	}
	return l.Value
}

// qualify names an object pkg.Name or pkg.Type.Name, or "" for a local or a
// member of an unnamed type.
func (c *collector) qualify(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	switch o := obj.(type) {
	case *types.Func: // FullName is pkg.Func, (pkg.Type).Method or (*pkg.Type).Method
		return strings.NewReplacer("(*", "", "(", "", ")", "").Replace(o.FullName())
	case *types.Var:
		if o.IsField() {
			c.walkOwners(o.Pkg())
			if owner := c.owners[o.Origin()]; owner != "" {
				return o.Pkg().Path() + "." + owner + "." + o.Name()
			}
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// walkOwners records, once per package, which named struct type declares
// each field.
func (c *collector) walkOwners(p *types.Package) {
	if c.walked[p] {
		return
	}
	c.walked[p] = true
	scope := p.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				c.owners[st.Field(i)] = name
			}
		}
	}
}
