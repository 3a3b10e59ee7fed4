package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"reqlens/internal/faults"
	"reqlens/internal/harness"
	"reqlens/internal/resilience"
	"reqlens/internal/sim"
	"reqlens/internal/telemetry"
)

// quickSweep is the reduced-scale sweep configuration the tests share:
// two levels, four heterogeneous nodes, three scrape epochs with jitter
// and a 20% miss rate, so every scrape-plane path is exercised.
func quickSweep(par int) (harness.ExpOptions, SweepOptions) {
	opt := harness.Quick()
	opt.Levels = []float64{0.3, 0.8}
	opt.Parallelism = par
	fopt := SweepOptions{
		Nodes:  DefaultSpecs(4),
		Epochs: 3,
		Scrape: ScrapeConfig{
			Interval: 100 * time.Millisecond,
			Skew:     20 * time.Millisecond,
			MissRate: 0.2,
		},
		ClusterParallelism: par,
	}
	return opt, fopt
}

// TestFleetParallelDeterminism is the tentpole invariant: a fleet sweep
// is bit-identical at any parallelism — both the engine's point workers
// and the lockstep workers inside each cluster. Serialized results are
// compared byte-for-byte at parallelism 1, 4 and GOMAXPROCS.
func TestFleetParallelDeterminism(t *testing.T) {
	run := func(par int) []byte {
		opt, fopt := quickSweep(par)
		res := Sweep(opt, fopt)
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		return data
	}
	base := run(1)
	for _, par := range []int{4, runtime.GOMAXPROCS(0)} {
		if got := run(par); !bytes.Equal(got, base) {
			t.Errorf("parallelism %d diverges from sequential run:\n seq: %s\n par: %s",
				par, base, got)
		}
	}
}

// TestFleetSweepShape sanity-checks the sweep output: higher load means
// higher cluster throughput, every level carries its rollup series and
// per-node ground truth, and observed RPS tracks real RPS.
func TestFleetSweepShape(t *testing.T) {
	opt, fopt := quickSweep(2)
	res := Sweep(opt, fopt)
	if res.Nodes != 4 || len(res.Points) != 2 {
		t.Fatalf("unexpected shape: %d nodes, %d points", res.Nodes, len(res.Points))
	}
	lo, hi := res.Points[0], res.Points[1]
	if lo.Gap || hi.Gap {
		t.Fatalf("unexpected gaps: %+v", res.Gaps)
	}
	if len(lo.Rollups) != fopt.Epochs || len(lo.Truth) != 4 {
		t.Fatalf("level 0.3: %d rollups, %d truths", len(lo.Rollups), len(lo.Truth))
	}
	if hi.RealRPS <= lo.RealRPS {
		t.Errorf("real RPS did not grow with load: %.1f -> %.1f", lo.RealRPS, hi.RealRPS)
	}
	for _, p := range res.Points {
		if p.ObsvRPS <= 0 {
			t.Errorf("level %.2f: no observed throughput", p.Level)
		}
		ratio := p.ObsvRPS / p.RealRPS
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("level %.2f: obsv %.1f vs real %.1f (ratio %.2f)",
				p.Level, p.ObsvRPS, p.RealRPS, ratio)
		}
	}
}

// TestFleetFaultIsolation pins the blast radius of per-node fault
// plans: arming a plan on node 0 must leave every other node's scraped
// export byte-identical to the unfaulted run — the nodes share nothing
// but the lockstep barrier.
func TestFleetFaultIsolation(t *testing.T) {
	run := func(plan faults.Plan) [][][]byte {
		specs := DefaultSpecs(3)
		specs[0].Plan = plan
		c := NewCluster(Options{
			Seed:   7,
			Nodes:  specs,
			Level:  0.5,
			Scrape: ScrapeConfig{Interval: 100 * time.Millisecond, Skew: -1},
			Warmup: 300 * time.Millisecond,
			// Parallel advancement on purpose: isolation must hold under
			// concurrent lockstep workers, not just sequentially.
			Parallelism: 3,
		})
		defer c.Close()
		epochs := make([][][]byte, 0, 3)
		for e := 0; e < 3; e++ {
			c.ScrapeEpoch()
			raws := make([][]byte, len(c.Nodes))
			for id := range c.Nodes {
				s, ok := c.Nodes[id].last, c.Nodes[id].lastOK
				if !ok {
					t.Fatalf("epoch %d: node %d never scraped", e, id)
				}
				raws[id] = append([]byte(nil), s.Raw...)
			}
			epochs = append(epochs, raws)
		}
		return epochs
	}

	clean := run(faults.Plan{})
	faulted := run(faults.NoisyNeighborPlan(4))

	node0Differs := false
	for e := range clean {
		for id := 1; id < 3; id++ {
			if !bytes.Equal(clean[e][id], faulted[e][id]) {
				t.Errorf("epoch %d: node %d export changed by a fault on node 0", e, id)
			}
		}
		if !bytes.Equal(clean[e][0], faulted[e][0]) {
			node0Differs = true
		}
	}
	if !node0Differs {
		t.Error("fault plan on node 0 left its own exports untouched; injection is dead")
	}
}

// TestScrapeMissesBecomeStaleGaps drives the plane at 100% miss rate:
// no node is ever scraped, so every rollup must report the whole fleet
// stale with zero fresh contributors — and a zero global RPS that comes
// from having no data, never from zero-filling.
func TestScrapeMissesBecomeStaleGaps(t *testing.T) {
	c := NewCluster(Options{
		Seed:   3,
		Nodes:  DefaultSpecs(2),
		Level:  0.3,
		Scrape: ScrapeConfig{Interval: 50 * time.Millisecond, MissRate: 1},
		Warmup: 200 * time.Millisecond,
	})
	defer c.Close()
	for _, r := range c.Run(2) {
		if r.Fresh != 0 || len(r.Stale) != 2 || r.Missed != 2 {
			t.Errorf("epoch %d: fresh=%d stale=%v missed=%d; want 0/[0 1]/2",
				r.Epoch, r.Fresh, r.Stale, r.Missed)
		}
		if r.GlobalObsvRPS != 0 || r.SaturatedNodes != 0 {
			t.Errorf("epoch %d: stale fleet produced non-empty sums: %+v", r.Epoch, r)
		}
		if len(r.TopSaturated) != 0 || len(r.TopNoisy) != 0 {
			t.Errorf("epoch %d: stale fleet produced rankings", r.Epoch)
		}
	}
	if c.MissedScrapes() != 4 {
		t.Errorf("missed scrapes = %d, want 4", c.MissedScrapes())
	}
}

// TestRollupExcludesStaleNotZeroFill is the white-box gap-convention
// check: a stale node contributes nothing to sums or denominators —
// excluding it is observably different from folding in a zero.
func TestRollupExcludesStaleNotZeroFill(t *testing.T) {
	at := sim.Time(0).Add(time.Second)
	staleness := 200 * time.Millisecond
	view := func(rps, sat float64) telemetry.Series {
		return telemetry.Series{Names: []string{metricObsvRPS, metricSaturation}, Values: []float64{rps, sat}}
	}
	fresh := &Node{ID: 0, lastOK: true, last: Sample{Node: 0, At: at, Metrics: view(100, 0.95)}}
	aged := &Node{ID: 1, lastOK: true, last: Sample{Node: 1, At: at.Add(-time.Second), Metrics: view(50, 0.5)}}
	never := &Node{ID: 2}

	r := computeRollup(1, at, []*Node{fresh, aged, never}, 2, 0, staleness)
	if r.Fresh != 1 {
		t.Fatalf("fresh = %d, want 1", r.Fresh)
	}
	if got, want := fmt.Sprint(r.Stale), "[1 2]"; got != want {
		t.Errorf("stale = %s, want %s", got, want)
	}
	if r.GlobalObsvRPS != 100 {
		t.Errorf("global RPS = %v; stale node leaked into the sum", r.GlobalObsvRPS)
	}
	// Zero-filling the two stale nodes would drag the mean to 0.95/3;
	// the gap convention keeps the denominator at the fresh count.
	if r.MeanSaturation != 0.95 {
		t.Errorf("mean saturation = %v, want 0.95 (fresh-only denominator)", r.MeanSaturation)
	}
	if r.SaturatedNodes != 1 {
		t.Errorf("saturated = %d, want 1", r.SaturatedNodes)
	}
	// Rankings follow the same rule: only the fresh node can be ranked,
	// and no wait-state series means no queueing ranking at all.
	if len(r.TopSaturated) != 1 || r.TopSaturated[0].Node != 0 || len(r.TopNoisy) != 1 || r.TopQueued != nil {
		t.Errorf("rankings = %+v / %+v / %+v, want the fresh node alone and no TopQueued",
			r.TopSaturated, r.TopNoisy, r.TopQueued)
	}
}

// TestScrapeViewMatchesFreshDecode is the fleet side of the decoder's
// stale-state check: the view a node keeps re-decoding into must equal
// a fresh decode of that scrape's Raw, epoch after epoch, on nodes that
// export wait-state gauges and across an instrument registered mid-run
// (it sorts first, so every later series moves one slot down).
func TestScrapeViewMatchesFreshDecode(t *testing.T) {
	c := NewCluster(Options{
		Seed:       5,
		Nodes:      DefaultSpecs(2),
		Scrape:     ScrapeConfig{Interval: 20 * time.Millisecond},
		Warmup:     100 * time.Millisecond,
		WaitStates: true,
	})
	defer c.Close()
	for epoch := 0; epoch < 4; epoch++ {
		if epoch == 2 {
			c.Nodes[0].Rig.Reg.Counter("aaa_registered_mid_run_total").Inc()
		}
		r := c.ScrapeEpoch()
		if len(r.TopQueued) == 0 {
			t.Fatalf("epoch %d: wait-state series not decoded: %+v", epoch, r)
		}
		for id := range c.Nodes {
			s := c.Nodes[id].last
			var fresh telemetry.Series
			if err := fresh.Decode(s.Raw); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fresh, s.Metrics) {
				t.Fatalf("epoch %d node %d: reused view diverges from a fresh decode\nreused: %v\nfresh:  %v",
					epoch, id, s.Metrics, fresh)
			}
		}
	}
	if s := c.Nodes[0].last; s.Metrics.Names[0] != "aaa_registered_mid_run_total" {
		t.Errorf("mid-run instrument not first in node 0's view: %v", s.Metrics.Names[:3])
	}
}

// TestScrapePlaneAllocs pins the scraper's steady-state budget: behind
// the barrier an epoch allocates one Raw per scraped node and the two
// ranking slices of the rollup, nothing else.
func TestScrapePlaneAllocs(t *testing.T) {
	c := NewCluster(Options{
		Seed:   9,
		Nodes:  DefaultSpecs(4),
		Scrape: ScrapeConfig{Interval: 10 * time.Millisecond},
		Warmup: 100 * time.Millisecond,
	})
	defer c.Close()
	c.Run(2) // the first decode allocates each node's name strings
	at := sim.Time(0).Add(c.opt.Warmup + 2*c.opt.Scrape.Interval)
	if got, want := testing.AllocsPerRun(20, func() { c.collect(at) }), float64(len(c.Nodes)+2); got != want {
		t.Errorf("collect allocated %v times per epoch, want %v (one Raw per node + TopSaturated + TopNoisy)", got, want)
	}
}

// TestTopByRanking pins the ranking order and the node-ID tie-break
// that keeps rollup rankings stable across runs.
func TestTopByRanking(t *testing.T) {
	topBy := func(stats []NodeStat, k int, better func(a, b NodeStat) bool) []NodeStat {
		var top []NodeStat
		for _, st := range stats {
			top = rank(top, k, st, better)
		}
		return top
	}
	stats := []NodeStat{
		{Node: 3, Saturation: 0.5},
		{Node: 2, Saturation: 0.9}, // ties with node 1 and arrives first
		{Node: 1, Saturation: 0.9},
		{Node: 0, Saturation: 0.1},
	}
	top := topBy(stats, 3, func(a, b NodeStat) bool { return a.Saturation > b.Saturation })
	got := fmt.Sprintf("%d,%d,%d", top[0].Node, top[1].Node, top[2].Node)
	if got != "1,2,3" {
		t.Errorf("ranking = %s, want 1,2,3 (ties break by node ID)", got)
	}
	if topBy(stats, 0, nil) != nil || topBy(nil, 3, nil) != nil {
		t.Error("degenerate topBy inputs should return nil")
	}
	if n := len(topBy(stats, 10, func(a, b NodeStat) bool { return a.Node < b.Node })); n != 4 {
		t.Errorf("k past len returned %d entries, want 4", n)
	}
}

// TestFleetSweepGapMarking proves a supervision-killed cluster becomes
// an explicit gap row, with its level restored for the renderer.
func TestFleetSweepGapMarking(t *testing.T) {
	opt, fopt := quickSweep(1)
	fopt.Scrape.MissRate = 0
	opt.Chaos = &resilience.Chaos{PanicNth: 2} // second point's first attempt panics
	res := Sweep(opt, fopt)
	if !res.Points[1].Gap || res.Points[1].Level != 0.8 {
		t.Fatalf("point 1 not marked as a gap: %+v", res.Points[1])
	}
	if res.Points[0].Gap {
		t.Fatalf("point 0 collaterally gapped")
	}
	if len(res.Gaps) != 1 || res.Gaps[0] != "fleet level=0.80" {
		t.Errorf("gap labels = %v", res.Gaps)
	}
	out := RenderSweep(res)
	if !strings.Contains(out, gapMark) || !strings.Contains(out, "gaps ("+gapMark+"): fleet level=0.80") {
		t.Errorf("renderer did not mark the gap:\n%s", out)
	}
}

// TestRenderStaleFootnote pins the renderer side of the staleness
// convention: a sweep whose rollups excluded stale nodes must carry the
// footnote, and a rollup's stale list must print as an explicit
// exclusion — not silently fold into the sums.
func TestRenderStaleFootnote(t *testing.T) {
	res := SweepResult{Nodes: 2, Points: []LevelPoint{
		{Level: 0.3, RealRPS: 100, ObsvRPS: 98, Rollups: []Rollup{{MeanSaturation: 0.4}}},
		{Level: 0.6, RealRPS: 200, ObsvRPS: 150, StaleEpochs: 1,
			Rollups: []Rollup{{MeanSaturation: 0.8, Stale: []int{1}}}},
	}}
	out := RenderSweep(res)
	if !strings.Contains(out, "* = one or more epochs excluded stale nodes") {
		t.Errorf("missing staleness footnote:\n%s", out)
	}
	if !strings.Contains(out, "150.0*") {
		t.Errorf("stale level's obsv cell not marked:\n%s", out)
	}

	clean := RenderSweep(SweepResult{Nodes: 2, Points: []LevelPoint{{Level: 0.3}}})
	if strings.Contains(clean, "excluded stale nodes") {
		t.Errorf("footnote printed with no stale epochs:\n%s", clean)
	}

	roll := RenderRollup(Rollup{Epoch: 2, GlobalObsvRPS: 50, Fresh: 1, Stale: []int{0, 2},
		TopSaturated: []NodeStat{{Node: 1, Saturation: 0.7}},
		TopNoisy:     []NodeStat{{Node: 1, SendVarUS2: 12.5}}})
	if !strings.Contains(roll, "stale ("+gapMark+", excluded from sums): node0, node2") {
		t.Errorf("rollup stale list not rendered:\n%s", roll)
	}
	if !strings.Contains(roll, "node1=0.700") || !strings.Contains(roll, "node1=12.5") {
		t.Errorf("rollup rankings not rendered:\n%s", roll)
	}
}

// TestNodeSpecDefaults covers weight defaulting and the heterogeneous
// default mix.
func TestNodeSpecDefaults(t *testing.T) {
	if (NodeSpec{}).weight() != 1 {
		t.Error("zero weight should default to 1")
	}
	if (NodeSpec{Weight: 2.5}).weight() != 2.5 {
		t.Error("explicit weight ignored")
	}
	specs := DefaultSpecs(7)
	if len(specs) != 7 {
		t.Fatalf("len = %d", len(specs))
	}
	if specs[0].Workload.Name == specs[1].Workload.Name {
		t.Error("default specs are not heterogeneous")
	}
	if specs[0].Workload.Name != specs[5].Workload.Name {
		t.Error("default specs should cycle the workload mix")
	}
}
