// Command incll-bench regenerates the paper's evaluation figures (§6) on
// the simulated-NVM reproduction. Each figure prints the same series the
// paper plots, under a header and with the parameters it ran with.
//
// Usage:
//
//	incll-bench -fig all                        # every figure + §6.2/§6.3
//	incll-bench -fig 2 -size 1000000 -threads 8 # one figure, scaled up
//	incll-bench -exp recovery                   # §6.3 only
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"incll/internal/harness"
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 2,3,4,5,6,7,8 or 'all'")
	exp := flag.String("exp", "", "extra experiment: 'flush' (§6.2), 'recovery' (§6.3), or 'ablations'")
	size := flag.Uint64("size", 200_000, "tree size (keys); the paper uses 20M")
	threads := flag.Int("threads", 4, "worker threads; the paper uses 8")
	ops := flag.Int("ops", 200_000, "operations per thread; the paper uses 1M")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	if *fig == "" && *exp == "" {
		flag.Usage()
		os.Exit(2)
	}
	p := harness.Params{TreeSize: *size, Threads: *threads, Ops: *ops, Seed: *seed}
	out := os.Stdout

	want := func(f string) bool {
		return *fig == "all" || *fig == f ||
			strings.Contains(","+*fig+",", ","+f+",")
	}
	if want("2") {
		harness.Fig2(out, p)
	}
	if want("3") {
		harness.Fig3(out, p)
	}
	if want("4") {
		harness.Fig4(out, p, nil)
	}
	if want("5") || want("6") {
		harness.Fig5And6(out, p, nil)
	}
	if want("7") {
		harness.Fig7(out, p, nil)
	}
	if want("8") {
		harness.Fig8(out, p)
	}
	if *exp == "flush" || *fig == "all" {
		harness.FlushCost(out, p)
	}
	if *exp == "recovery" || *fig == "all" {
		harness.Recovery(out, p)
	}
	if *exp == "ablations" || *fig == "all" {
		harness.AblationEpochLength(out, p)
		harness.AblationEviction(out, p)
	}
	fmt.Fprintln(out)
}
