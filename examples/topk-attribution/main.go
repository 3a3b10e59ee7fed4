// Top-K attribution: high-cardinality accounting in fixed map space.
//
// A kernel hosting hundreds of processes cannot afford a hash-map entry
// per tgid — map memory is the scarce resource the paper's Section IV
// worries about. This demo runs a skewed population of processes (a few
// hot, a long cold tail) against the sketch-based attribution probe:
// one count-min sketch per metric plus a HashPipe top-K table, all
// fixed-size regardless of how many processes show up. It then merges a
// second node's sketches into the first — the cross-node fold the fleet
// rollup performs — and checks the merged ranking against exact per-tgid
// counts that a ground-truth listener takes outside the measured path.
//
//	go run ./examples/topk-attribution [-procs N]
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/machine"
	"reqlens/internal/probes"
	"reqlens/internal/sim"
)

// node simulates one host: procs processes invoking syscalls with a
// skewed intensity (process i performs work/(i+1) operations — a
// harmonic profile, so rank 0 dominates), observed by an attribution
// probe. It returns the probe and the exact sys_enter count per tgid,
// taken by a tracer listener that costs the traced threads nothing.
func node(seed int64, procs, work int) (*probes.AttributionProbe, map[uint64]uint64) {
	env := sim.NewEnv(seed)
	k := kernel.New(env, machine.Profile{
		Name: "demo", Sockets: 1, CoresPerSock: 4, ThreadsPerCore: 1,
		TimeSlice: time.Millisecond,
	})
	probe := probes.Must(probes.NewAttributionProbe("attr", nil))
	if err := probe.Attach(k.Tracer()); err != nil {
		panic(err)
	}
	exact := map[uint64]uint64{}
	k.Tracer().AddListener(func(ev kernel.SyscallEvent) {
		if ev.Enter {
			exact[ev.Thread.PidTgid()>>32]++
		}
	})
	for i := 0; i < procs; i++ {
		ops := work / (i + 1)
		if ops < 1 {
			ops = 1
		}
		p := k.NewProcess(fmt.Sprintf("svc%03d", i))
		n := ops
		p.SpawnThread("w", func(th *kernel.Thread) {
			for j := 0; j < n; j++ {
				nr := kernel.SysRead
				if j%3 == 0 {
					nr = kernel.SysSendto // every third op is a send
				}
				th.Invoke(nr, [6]uint64{}, func() int64 { return 1 })
				th.Sleep(200 * time.Microsecond)
			}
		})
	}
	env.Run()
	return probe, exact
}

func main() {
	procs := flag.Int("procs", 200, "processes per simulated node")
	flag.Parse()

	fmt.Printf("two nodes, %d processes each, harmonic load skew\n", *procs)
	a, truth := node(7, *procs, 600)
	b, truthB := node(8, *procs, 600)

	// Scrape both nodes (clones of the live maps) and fold node B into
	// node A — element-wise count-min addition plus the deterministic
	// HashPipe union. This is exactly what the fleet rollup does across
	// a cluster.
	merged := a.Sketches()
	if err := merged.Merge(b.Sketches()); err != nil {
		panic(err)
	}

	// Exact truth: both nodes' counts, summed per tgid.
	for tgid, n := range truthB {
		truth[tgid] += n
	}
	type tc struct {
		tgid uint64
		n    uint64
	}
	exact := make([]tc, 0, len(truth))
	for tgid, n := range truth {
		exact = append(exact, tc{tgid, n})
	}
	sort.Slice(exact, func(i, j int) bool {
		if exact[i].n != exact[j].n {
			return exact[i].n > exact[j].n
		}
		return exact[i].tgid < exact[j].tgid
	})

	const K = 5
	top := merged.TopOffenders(K)
	fmt.Printf("\nsketch memory: %d B per node for %d distinct tgids"+
		" (exact map would grow with every process)\n\n", a.Bytes(), len(truth))
	fmt.Printf("%-4s | %-22s | %-14s\n", "rank", "sketch (merged nodes)", "exact oracle")
	for i := 0; i < K && i < len(exact); i++ {
		s := "—"
		if i < len(top) {
			s = fmt.Sprintf("tgid %d ~%d calls", top[i].TGID, top[i].Syscalls)
		}
		fmt.Printf("%-4d | %-22s | tgid %d %d calls\n", i+1, s, exact[i].tgid, exact[i].n)
	}

	// The smoke gate: the sketch's top offender must match the exact one.
	if len(top) == 0 || len(exact) == 0 || top[0].TGID != exact[0].tgid {
		fmt.Fprintln(os.Stderr, "top offender mismatch between sketch and oracle")
		os.Exit(1)
	}

	// Recall@K across the merge.
	inTop := map[uint64]bool{}
	for _, o := range top {
		inTop[o.TGID] = true
	}
	hits := 0
	for i := 0; i < K && i < len(exact); i++ {
		if inTop[exact[i].tgid] {
			hits++
		}
	}
	fmt.Printf("\nrecall@%d after cross-node merge: %d/%d\n", K, hits, K)
	fmt.Println("fixed map space named the hot processes; no per-tgid state grew.")
}
