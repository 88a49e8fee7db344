// Command peaload drives a live peaserve with N concurrent tenants and
// reports request latency percentiles (p50/p90/p99) plus the server's
// two-tier cache effectiveness over the run (the server's /stats after
// minus before): in-memory hits, disk hits, pipeline compiles, first-call
// warm installs, and the combined hit rate. It is the measurement tool for
// the persistent-artifact story — run it against a fresh store, restart the
// server, run it again: the second report should show pipeline_compiles=0
// and hit_rate near 1.0. A second run against the same live server should
// show pipeline_compiles=0 and warm_installs>0.
//
// Usage:
//
//	peaload [-url http://host:port] [-tenants N] [-requests N] [-runs N]
//	        [-src prog.mj] [-out report.json]
//	        [-min-hit-rate F] [-min-disk-hits N] [-max-pipeline-compiles N]
//	        [-min-warm-installs N]
//
// The threshold flags turn the report into an assertion: peaload exits
// nonzero when the measured hit rate, disk-hit count, pipeline-compile
// count, or warm-install count misses the bound, which is how CI checks that
// a warm restart actually replays persisted artifacts and that a second pass
// installs cache-first. -max-pipeline-compiles is -1 (unchecked) by default
// since cold runs legitimately compile.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"pea/internal/bench"
)

func main() {
	url := flag.String("url", "http://127.0.0.1:8377", "peaserve base URL")
	tenants := flag.Int("tenants", 8, "concurrent tenant goroutines")
	requests := flag.Int("requests", 4, "requests per tenant")
	runs := flag.Int("runs", 3, "Main.main runs per request")
	srcPath := flag.String("src", "", "tenant MiniJava program (default: built-in workload)")
	out := flag.String("out", "", "write the JSON report to this file (always printed to stdout)")
	minHitRate := flag.Float64("min-hit-rate", 0, "fail if the two-tier cache hit rate is below this")
	minDiskHits := flag.Int64("min-disk-hits", 0, "fail if fewer artifacts were replayed from disk")
	maxPipeline := flag.Int64("max-pipeline-compiles", -1, "fail if more pipeline compiles ran (-1 = unchecked)")
	minWarmInstalls := flag.Int64("min-warm-installs", 0, "fail if fewer first-call installs came out of the shared cache")
	flag.Parse()

	opts := bench.LoadOptions{URL: *url, Tenants: *tenants, Requests: *requests, Runs: *runs}
	if *srcPath != "" {
		src, err := os.ReadFile(*srcPath)
		if err != nil {
			fatal(err)
		}
		opts.Source = string(src)
	}
	rep, err := bench.RunLoad(opts)
	if err != nil {
		fatal(err)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(data))
	if *out != "" {
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}

	failed := false
	if rep.Errors > 0 {
		fmt.Fprintf(os.Stderr, "peaload: %d/%d requests failed (first: %s)\n",
			rep.Errors, rep.Requests, rep.FirstError)
		failed = true
	}
	if rep.HitRate < *minHitRate {
		fmt.Fprintf(os.Stderr, "peaload: hit rate %.3f below required %.3f\n", rep.HitRate, *minHitRate)
		failed = true
	}
	if rep.DiskHits < *minDiskHits {
		fmt.Fprintf(os.Stderr, "peaload: disk hits %d below required %d\n", rep.DiskHits, *minDiskHits)
		failed = true
	}
	if rep.WarmInstalls < *minWarmInstalls {
		fmt.Fprintf(os.Stderr, "peaload: warm installs %d below required %d\n", rep.WarmInstalls, *minWarmInstalls)
		failed = true
	}
	if *maxPipeline >= 0 && rep.PipelineCompiles > *maxPipeline {
		fmt.Fprintf(os.Stderr, "peaload: %d pipeline compiles exceed allowed %d\n",
			rep.PipelineCompiles, *maxPipeline)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "peaload:", err)
	os.Exit(1)
}
