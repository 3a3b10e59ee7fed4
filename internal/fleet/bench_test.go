package fleet

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// BenchmarkFleetEpochs measures cluster simulation throughput against
// fleet size: one iteration warms a fresh cluster and drives four
// scrape epochs. Reported metrics: node_epochs/s (scrape rounds
// completed per node per second of wall clock) and events/s (simulator
// events executed across all node environments). scripts/bench.sh
// folds the per-size lines into BENCH_fleet.json.
func BenchmarkFleetEpochs(b *testing.B) {
	for _, nodes := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			var events uint64
			epochs := 0
			for i := 0; i < b.N; i++ {
				c := NewCluster(Options{
					Seed:        42,
					Nodes:       DefaultSpecs(nodes),
					Level:       0.5,
					Scrape:      ScrapeConfig{Interval: 50 * time.Millisecond},
					Warmup:      100 * time.Millisecond,
					Parallelism: runtime.GOMAXPROCS(0),
				})
				c.Run(4)
				for _, n := range c.Nodes {
					events += n.Rig.Reg.Counter("sim_events_total").Value()
				}
				epochs += nodes * 4
				c.Close()
			}
			secs := b.Elapsed().Seconds()
			if secs > 0 {
				b.ReportMetric(float64(epochs)/secs, "node_epochs/s")
				b.ReportMetric(float64(events)/secs, "events/s")
			}
		})
	}
}

// BenchmarkScrapeEpoch measures the scrape plane in its densest
// setting, the one `reqlens fleet -scrape-interval 1ms` runs: one
// iteration advances a warmed 16-node cluster by one 1 ms epoch, scrapes
// every node (export, decode) and computes the rollup. No setting has
// less simulated time per scrape, so none shows the plane's cost more.
// allocs/op counts plane and simulation; scripts/check.sh gates it.
func BenchmarkScrapeEpoch(b *testing.B) {
	const nodes = 16
	c := NewCluster(Options{
		Seed:   42,
		Nodes:  DefaultSpecs(nodes),
		Level:  0.5,
		Scrape: ScrapeConfig{Interval: time.Millisecond},
		Warmup: 100 * time.Millisecond,
	})
	defer c.Close()
	c.Warmup()
	c.ScrapeEpoch() // first decode allocates the nodes' name strings
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.ScrapeEpoch()
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(nodes*b.N)/secs, "scrapes/s")
	}
}
