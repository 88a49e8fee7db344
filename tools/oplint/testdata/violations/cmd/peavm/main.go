package main

import "flag"

func main() {
	flag.Bool("jit-async", false, "")
	flag.Bool("trace-chrome", false, "")
	flag.Bool("summaries", true, "")
	fs := flag.NewFlagSet("peavm", flag.ExitOnError)
	fs.Int("cache-entries", 0, "")
}
