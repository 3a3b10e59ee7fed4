package harness

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"reqlens/internal/netsim"
	"reqlens/internal/workloads"
)

// TestParallelSweepDeterminism is the engine's core guarantee: for the
// same seed, a parallel sweep is bit-identical to the sequential one.
func TestParallelSweepDeterminism(t *testing.T) {
	opt := Quick()
	opt.Levels = []float64{0.4, 0.7, 1.0, 1.15}
	// Streaming on: the ring-buffer pipeline (event folding, drain
	// cadence, drop accounting) must be as deterministic as the maps.
	opt.Stream = true

	seq := opt
	seq.Parallelism = 1
	par := opt
	par.Parallelism = 4

	spec := workloads.Silo()
	a := SaturationSweep(spec, seq)
	b := SaturationSweep(spec, par)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel sweep differs from sequential:\nseq: %+v\npar: %+v", a, b)
	}
	for _, p := range a.Points {
		if !p.StreamAgree || p.StreamDropped != 0 {
			t.Fatalf("point %+v: stream window should match batch with a default ring", p)
		}
	}
}

func TestParallelFig2Determinism(t *testing.T) {
	opt := Quick()
	seq := opt
	seq.Parallelism = 1
	par := opt
	par.Parallelism = 3

	a := Fig2(workloads.DataCaching(), seq)
	b := Fig2(workloads.DataCaching(), par)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel Fig2 differs from sequential:\nseq fit %+v\npar fit %+v", a.Fit, b.Fit)
	}
}

func TestParallelFig5AndTable2Determinism(t *testing.T) {
	opt := Quick()
	opt.Levels = []float64{0.5, 0.9}
	cfgs := []netsim.Config{{}, {Delay: 5 * time.Millisecond, Loss: 0.005}}
	seq := opt
	seq.Parallelism = 1
	par := opt
	par.Parallelism = 4

	spec := workloads.TritonGRPC()
	if a, b := Fig5(spec, cfgs, seq), Fig5(spec, cfgs, par); !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel Fig5 differs from sequential")
	}
	specs := []workloads.Spec{workloads.Silo(), workloads.DataCaching()}
	if a, b := Table2(specs, cfgs, seq), Table2(specs, cfgs, par); !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel Table2 differs from sequential:\nseq %+v\npar %+v", a, b)
	}
}

func TestParallelOverheadDeterminism(t *testing.T) {
	opt := Quick()
	opt.MinSends = 256
	seq := opt
	seq.Parallelism = 1
	par := opt
	par.Parallelism = 2

	a := Overhead(workloads.DataCaching(), 0.6, seq)
	b := Overhead(workloads.DataCaching(), 0.6, par)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("parallel Overhead differs from sequential:\nseq %+v\npar %+v", a, b)
	}
}

// TestConcurrentRigIsolation drives several independent rigs on bare
// goroutines. Under `go test -race` this fails loudly if rigs share any
// mutable state (the engine's safety precondition).
func TestConcurrentRigIsolation(t *testing.T) {
	spec := workloads.ImgDNN()
	const rigs = 4
	got := make([]float64, rigs)
	var wg sync.WaitGroup
	for i := 0; i < rigs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := NewRig(spec, RigOptions{Seed: 7, Rate: 0.5 * spec.FailureRPS, Probes: true})
			r.Warmup(300 * time.Millisecond)
			m := r.Measure(200 * time.Millisecond)
			r.Close()
			got[i] = m.Load.RealRPS
		}(i)
	}
	wg.Wait()
	for i := 1; i < rigs; i++ {
		if got[i] != got[0] {
			t.Fatalf("same-seed rigs diverged under concurrency: %v", got)
		}
	}
	if got[0] == 0 {
		t.Fatal("no throughput measured")
	}
}

func TestRunPointsOrderingAndProgress(t *testing.T) {
	opt := ExpOptions{Parallelism: 3}
	labels := make([]string, 7)
	for i := range labels {
		labels[i] = fmt.Sprintf("p%d", i)
	}
	var mu sync.Mutex
	var done []PointDone
	opt.Progress = func(p PointDone) {
		mu.Lock()
		done = append(done, p)
		mu.Unlock()
	}
	var statsSeen RunStats
	opt.Stats = func(s RunStats) { statsSeen = s }

	out, st := runPoints(opt, "", labels, func(_ PointCtx, i int) int {
		time.Sleep(time.Duration(7-i) * time.Millisecond) // finish out of order
		return i * i
	})
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d (ordering broken)", i, v, i*i)
		}
	}
	if st.Points != 7 || st.Workers != 3 || len(st.PointWall) != 7 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Wall <= 0 || st.TotalPointWall() <= 0 || st.Concurrency() <= 0 {
		t.Fatalf("degenerate timing: %+v", st)
	}
	if statsSeen.Points != st.Points {
		t.Fatalf("Stats callback saw %+v", statsSeen)
	}
	if len(done) != 7 {
		t.Fatalf("progress calls = %d, want 7", len(done))
	}
	sort.Slice(done, func(a, b int) bool { return done[a].Index < done[b].Index })
	for i, p := range done {
		if p.Index != i || p.Total != 7 || p.Label != labels[i] {
			t.Fatalf("progress[%d] = %+v", i, p)
		}
		if p.Worker < 0 || p.Worker >= st.Workers {
			t.Fatalf("worker slot out of range: %+v", p)
		}
	}
}

func TestRunPointsEmptyAndSequential(t *testing.T) {
	out, st := runPoints(ExpOptions{}, "", nil, func(_ PointCtx, i int) int { return i })
	if len(out) != 0 || st.Points != 0 {
		t.Fatalf("empty batch: out=%v stats=%+v", out, st)
	}
	// Parallelism 1 must use the caller's goroutine (sequential path).
	opt := ExpOptions{Parallelism: 1}
	var order []int
	outs, st := runPoints(opt, "", []string{"a", "b", "c"}, func(_ PointCtx, i int) int {
		order = append(order, i) // safe: sequential path, no goroutines
		return i
	})
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Fatalf("sequential order = %v", order)
	}
	if !reflect.DeepEqual(outs, []int{0, 1, 2}) || st.Workers != 1 {
		t.Fatalf("outs=%v stats=%+v", outs, st)
	}
}

func TestWorkersResolution(t *testing.T) {
	cases := []struct {
		par, points, want int
	}{
		{0, 100, runtime.GOMAXPROCS(0)}, // default: bounded by GOMAXPROCS
		{4, 100, 4},                     // explicit
		{8, 3, 3},                       // capped at point count
		{-2, 1, 1},                      // negative behaves like default, capped
		{1, 0, 1},                       // floor of one worker slot
	}
	for _, c := range cases {
		o := ExpOptions{Parallelism: c.par}
		if got := o.workers(c.points); got != c.want {
			t.Errorf("workers(par=%d, points=%d) = %d, want %d", c.par, c.points, got, c.want)
		}
	}
}
