// Command peastat is the offline analyzer for the VM's event stream: traces
// (peavm -trace-events) and ring dumps (peavm -flight-dump, crash-dir
// flight-*.jsonl files, /debug/pea/flight snapshots), one obs.Event per
// line. It reads any mix of them, counts an occurrence present in both a
// ring dump and the trace of the same run once, and prints compile-latency
// percentiles, code-cache hit rate, top deoptimization reasons, and the
// per-allocation-site escape attribution table.
//
// Usage:
//
//	peastat [flags] [file ...]                # no files: read stdin
//	peastat events.jsonl flight-Main_main.jsonl
//	peastat -chrome trace.json events.jsonl   # also convert to chrome://tracing
//	peastat -escape-only events.jsonl         # just the Table-1-style table
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pea/internal/obs"
	"pea/internal/stat"
)

func main() {
	chrome := flag.String("chrome", "", "also write a Chrome trace_event JSON file (load in Perfetto) converted from the events in the input")
	escapeOnly := flag.Bool("escape-only", false, "print only the escape attribution table")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: peastat [flags] [file ...]\nAnalyzes event traces and ring dumps, JSONL (stdin when no files).\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var readers []io.Reader
	var closers []io.Closer
	if flag.NArg() == 0 {
		readers = append(readers, os.Stdin)
	}
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "peastat: %v\n", err)
			os.Exit(1)
		}
		readers = append(readers, f)
		closers = append(closers, f)
	}

	rep, err := stat.Analyze(io.MultiReader(readers...))
	for _, c := range closers {
		c.Close()
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "peastat: %v\n", err)
		os.Exit(1)
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fmt.Fprintf(os.Stderr, "peastat: %v\n", err)
			os.Exit(1)
		}
		tw := obs.NewTraceWriter(f)
		for i := range rep.Events {
			tw.Write(&rep.Events[i])
		}
		err = tw.Close()
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "peastat: writing %s: %v\n", *chrome, err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "peastat: wrote %s (%d events)\n", *chrome, len(rep.Events))
	}

	if *escapeOnly {
		fmt.Print(rep.Escape.Table())
		return
	}
	fmt.Print(rep.Text())
}
