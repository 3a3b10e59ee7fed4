// Command tracedump streams the raw syscall trace of one workload
// through the eBPF streaming probe and prints it — the tooling behind
// the paper's Fig. 1 exploration ("initially, we streamed all available
// eBPF trace data to user space").
//
//	tracedump -workload data-caching -load 0.5 -dur 200ms -max 200
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"reqlens/internal/harness"
	"reqlens/internal/kernel"
	"reqlens/internal/trace"
	"reqlens/internal/workloads"
)

func main() {
	name := flag.String("workload", "data-caching", "workload to trace")
	load := flag.Float64("load", 0.5, "load fraction of the failure RPS")
	dur := flag.Duration("dur", 200*time.Millisecond, "capture duration (virtual time)")
	maxLines := flag.Int("max", 200, "max trace lines to print (0 = all)")
	seed := flag.Int64("seed", 42, "simulation seed")
	flag.Parse()

	spec, ok := workloads.ByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown workload %q\n", *name)
		os.Exit(2)
	}
	opt := harness.Quick()
	opt.Seed = *seed
	res := harness.Fig1(spec, *load, *dur, opt)

	fmt.Printf("# %s at %.0f%% load, %v capture, %d events (%d dropped)\n",
		spec, 100*(*load), *dur, len(res.Events), res.Dropped)
	evs := res.Events
	fmt.Print(trace.Render(evs, *maxLines))
	fmt.Println()
	fmt.Print(harness.RenderFig1(res))

	// The extracted request-oriented subset of Fig. 1(c).
	sub := trace.Filter(evs, func(e trace.Event) bool { return trace.RequestOriented(e.NR) })
	polls := trace.PairDurations(sub, kernel.PollFamily)
	sends := trace.EnterTimes(sub, kernel.SendFamily)
	fmt.Printf("\nrequest-oriented subset: %d events, %d poll durations, %d sends\n",
		len(sub), len(polls), len(sends))
}
