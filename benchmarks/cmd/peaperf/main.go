// Command peaperf is the repository's wall-clock benchmark (see
// benchmarks/README.md and BENCHMARK.json).
//
//	peaperf run [-workload W] [-seed N] [-seconds S | -scale X] [-trace] [-repeat N] [-out FILE]
//	peaperf gen                       freeze the inputs (redefines the benchmark)
//	peaperf compare A.json B.json     medians, deltas, bounds and verdicts
//	peaperf selfcheck [-repeat N]     run everything twice and compare the two
//	peaperf table1 FILE.json          Table 1 of the paper in wall clock
//
// With -workload the run happens in this process and the last line of
// standard output is the JSON object the benchmark driver reads; without it,
// every workload runs in a child process of its own.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"pea/benchmarks"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch cmd, args := os.Args[1], os.Args[2:]; cmd {
	case "run":
		err = cmdRun(args)
	case "gen":
		err = cmdGen(args)
	case "compare":
		err = cmdCompare(args)
	case "selfcheck":
		err = cmdSelfcheck(args)
	case "table1":
		err = cmdTable1(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "peaperf:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: peaperf run|gen|compare|selfcheck|table1 [flags] (see benchmarks/README.md)")
	os.Exit(2)
}

// runFlags are the flags run and selfcheck share.
type runFlags struct {
	dir      string
	workload string
	seed     uint64
	seconds  float64
	scale    float64
	trace    bool
	repeat   int
	out      string
}

func (f *runFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.dir, "dir", "benchmarks", "the benchmark's directory (programs/ and out/ live under it)")
	fs.StringVar(&f.workload, "workload", "", "run this one workload in this process (default: all, a child process each)")
	fs.Uint64Var(&f.seed, "seed", 1, "orders and perturbs the frozen inputs")
	fs.Float64Var(&f.seconds, "seconds", benchmarks.NominalSeconds, "approximate timed work per workload; fixes the operation counts")
	fs.Float64Var(&f.scale, "scale", 0, "operation-count scale, overriding -seconds (1 = the full counts)")
	fs.BoolVar(&f.trace, "trace", false, "traced run: per-layer metrics (with -workload); untraced and traced runs (without)")
	fs.IntVar(&f.repeat, "repeat", 1, "repetitions of the whole benchmark, each with the next seed")
	fs.StringVar(&f.out, "out", "", "write every result to this file")
}

func (f *runFlags) effectiveScale() float64 {
	if f.scale > 0 {
		return f.scale
	}
	return f.seconds / benchmarks.NominalSeconds
}

// normalize rewrites "-trace 0" and "-trace 1" (the benchmark driver's
// spelling) into the flag package's "-trace=0" form; a bare -trace stays.
func normalize(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

func cmdRun(args []string) error {
	var f runFlags
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	f.register(fs)
	fs.Parse(normalize(args))
	if fs.NArg() > 0 {
		return fmt.Errorf("run: unexpected argument %q", fs.Arg(0))
	}
	if f.workload != "" {
		return runOne(&f)
	}
	report, err := runAll(&f)
	if err != nil {
		return err
	}
	if f.out != "" {
		if err := report.Write(f.out); err != nil {
			return err
		}
	}
	return failedRuns(report)
}

// runOne runs one workload in this process.
func runOne(f *runFlags) error {
	res, err := benchmarks.Run(benchmarks.Config{
		Dir: f.dir, Workload: f.workload, Seed: f.seed, Scale: f.effectiveScale(), Trace: f.trace,
	})
	if err != nil {
		return err
	}
	if f.out != "" {
		if err := (&benchmarks.Report{Runs: []*benchmarks.Result{res}}).Write(f.out); err != nil {
			return err
		}
	}
	res.Print(os.Stdout)
	fmt.Println(res.ContractLine())
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed or differed from the reference", res.Workload, res.Failed, res.Attempted)
	}
	return nil
}

// runAll runs every workload, each in a child process so that peak_rss_mb is
// per workload and no heap state leaks from one workload into the next.
func runAll(f *runFlags) (*benchmarks.Report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	outDir := filepath.Join(f.dir, "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	report := &benchmarks.Report{}
	for rep := 0; rep < f.repeat; rep++ {
		for _, wl := range benchmarks.Workloads {
			modes := []bool{false}
			if f.trace {
				modes = append(modes, true)
			}
			for _, trace := range modes {
				tmp := filepath.Join(outDir, fmt.Sprintf("result-%d.json", os.Getpid()))
				cmd := exec.Command(self, "run", "-dir", f.dir, "-workload", wl.Name,
					"-seed", fmt.Sprint(f.seed+uint64(rep)), "-scale", fmt.Sprint(f.effectiveScale()),
					fmt.Sprintf("-trace=%v", trace), "-out", tmp)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				runErr := cmd.Run()
				child, err := benchmarks.ReadReport(tmp)
				os.Remove(tmp)
				if err != nil {
					if runErr != nil {
						return nil, fmt.Errorf("%s: %w", wl.Name, runErr)
					}
					return nil, err
				}
				report.Runs = append(report.Runs, child.Runs...)
			}
		}
	}
	return report, nil
}

func failedRuns(r *benchmarks.Report) error {
	for _, res := range r.Runs {
		if !res.Correct {
			return fmt.Errorf("%s (seed %d): %d of %d operations failed or differed from the reference",
				res.Workload, res.Seed, res.Failed, res.Attempted)
		}
	}
	return nil
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dir := fs.String("dir", "benchmarks", "the benchmark's directory")
	examples := fs.String("examples", "examples", "where the hand-written .mj programs are copied from")
	fs.Parse(args)
	return benchmarks.Generate(filepath.Join(*dir, "programs"), *examples, func(format string, a ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", a...)
	})
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("compare: want two result files")
	}
	a, err := benchmarks.ReadReport(args[0])
	if err != nil {
		return err
	}
	b, err := benchmarks.ReadReport(args[1])
	if err != nil {
		return err
	}
	if benchmarks.Compare(os.Stdout, a, b) {
		return fmt.Errorf("compare: %s is worse than %s beyond a bound", args[1], args[0])
	}
	return nil
}

func cmdSelfcheck(args []string) error {
	var f runFlags
	fs := flag.NewFlagSet("selfcheck", flag.ExitOnError)
	f.register(fs)
	fs.Parse(normalize(args))
	f.workload, f.trace = "", false
	var reports [2]*benchmarks.Report
	for i := range reports {
		r, err := runAll(&f)
		if err != nil {
			return err
		}
		if err := failedRuns(r); err != nil {
			return err
		}
		if err := r.Write(filepath.Join(f.dir, "out", fmt.Sprintf("selfcheck-%c.json", 'A'+i))); err != nil {
			return err
		}
		reports[i] = r
		f.seed += uint64(f.repeat)
	}
	if benchmarks.Compare(os.Stdout, reports[0], reports[1]) {
		return fmt.Errorf("selfcheck: two sets of runs of the same commit disagree beyond a bound")
	}
	return nil
}

func cmdTable1(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("table1: want one result file")
	}
	r, err := benchmarks.ReadReport(args[0])
	if err != nil {
		return err
	}
	return benchmarks.Table1(os.Stdout, r)
}
