package fleet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"reqlens/internal/workloads"
)

// waitCluster builds the wait-state cluster the tests share: two nodes
// at a comfortable level plus one driven past its capacity, so exactly
// one member should show real runqueue wait.
func waitCluster(par int) *Cluster {
	specs := []NodeSpec{
		{Workload: workloads.Silo()},
		{Workload: workloads.Xapian()},
		{Workload: workloads.Silo(), Weight: 2.2}, // hot node: ~1.3x its failure RPS
	}
	return NewCluster(Options{
		Nodes: specs,
		Level: 0.6,
		Scrape: ScrapeConfig{
			Interval: 100 * time.Millisecond,
			Skew:     20 * time.Millisecond,
		},
		TopK:        3,
		WaitStates:  true,
		Warmup:      200 * time.Millisecond,
		Parallelism: par,
	})
}

// TestFleetWaitStateRollup checks the wait-state plane end to end: with
// Options.WaitStates on, rollups rank nodes by runnable share, the
// shares are a valid decomposition, and the overdriven node tops both
// the queued and the saturated ranking — the cluster-level "whose p99
// is the CPU's fault" view, from scraped exports alone.
func TestFleetWaitStateRollup(t *testing.T) {
	c := waitCluster(1)
	defer c.Close()
	rollups := c.Run(3)
	last := rollups[len(rollups)-1]
	if len(last.TopQueued) == 0 {
		t.Fatal("no queued ranking despite WaitStates on")
	}
	for _, s := range last.TopQueued {
		sum := s.OnCPUShare + s.RunnableShare + s.BlockedShare
		if sum < 1-1e-6 || sum > 1+1e-6 {
			t.Errorf("node %d shares sum to %v", s.Node, sum)
		}
	}
	for i := 1; i < len(last.TopQueued); i++ {
		if last.TopQueued[i].RunnableShare > last.TopQueued[i-1].RunnableShare {
			t.Errorf("queued ranking out of order at %d", i)
		}
	}
	if top := last.TopQueued[0]; top.Node != 2 || top.RunnableShare < 0.05 {
		t.Errorf("hot node not identified: top queued = node %d at %.3f", top.Node, top.RunnableShare)
	}
	if len(last.TopSaturated) == 0 || last.TopSaturated[0].Node != 2 {
		t.Errorf("hot node does not top the saturated ranking: %+v", last.TopSaturated)
	}
	out := RenderRollup(last)
	if !strings.Contains(out, "top queued") {
		t.Errorf("RenderRollup misses queued section:\n%s", out)
	}
}

// TestFleetWaitStateParallelDeterminism pins the rollup fold: the
// queued ranking is bit-identical at any lockstep worker count.
func TestFleetWaitStateParallelDeterminism(t *testing.T) {
	run := func(par int) []byte {
		c := waitCluster(par)
		defer c.Close()
		data, err := json.Marshal(c.Run(3))
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}
	base := run(1)
	for _, par := range []int{2, 3} {
		if got := run(par); !bytes.Equal(got, base) {
			t.Errorf("parallelism %d diverges from sequential run:\n seq: %s\n par: %s",
				par, base, got)
		}
	}
}

// TestFleetWaitStatesOffByDefault pins the opt-in: without
// Options.WaitStates there is no queued ranking — absence of the sched
// probes reads as "signal not deployed", never as zero queueing — and
// the probes' per-transition cost never perturbs default runs.
func TestFleetWaitStatesOffByDefault(t *testing.T) {
	c := NewCluster(Options{
		Nodes:       DefaultSpecs(2),
		Level:       0.5,
		Scrape:      ScrapeConfig{Interval: 100 * time.Millisecond},
		Warmup:      200 * time.Millisecond,
		Parallelism: 1,
	})
	defer c.Close()
	for _, r := range c.Run(2) {
		if r.TopQueued != nil {
			t.Fatalf("epoch %d: queued ranking present without WaitStates", r.Epoch)
		}
	}
}
