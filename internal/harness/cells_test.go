package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"reqlens/internal/machine"
	"reqlens/internal/netsim"
	"reqlens/internal/resilience"
	"reqlens/internal/workloads"
)

// cellValue is a synthetic point result: a pure function of the cell,
// like every real body.
type cellValue struct {
	Label string
	Seed  int64
	Gap   bool `json:",omitempty"`
}

// TestRunCellsGapSlots is the engine half of the gap contract, checked
// once for every driver: under chaos with no retries, exactly the
// injected slots hold gap(cell) and every other slot equals the
// unperturbed run — at any chaos stride and any Parallelism.
func TestRunCellsGapSlots(t *testing.T) {
	cells := Quick().LevelCells(Cell{Label: "synthetic"}, 7)
	cells = append(cells, Quick().LevelCells(Cell{Label: "second block", Row: 1}, 7)...)
	run := func(_ PointCtx, c Cell) cellValue { return cellValue{Label: c.Label, Seed: c.Seed + int64(c.Row)} }
	gap := func(c Cell) cellValue { return cellValue{Label: c.Label, Gap: true} }

	clean, st := RunCells(ExpOptions{Parallelism: 1}, "synthetic", cells, run, gap)
	if len(st.Gaps) != 0 {
		t.Fatalf("clean run gapped: %v", st.GapLabels())
	}
	for nth := 1; nth <= len(cells); nth++ {
		for _, par := range []int{1, 4} {
			opt := ExpOptions{Parallelism: par, Chaos: &resilience.Chaos{PanicNth: nth}}
			out, st := RunCells(opt, "synthetic", cells, run, gap)
			var wantGaps []string
			for i, c := range cells {
				want := clean[i]
				if (i+1)%nth == 0 {
					want = gap(c)
					wantGaps = append(wantGaps, c.Label)
				}
				if out[i] != want {
					t.Fatalf("nth=%d par=%d slot %d = %+v, want %+v", nth, par, i, out[i], want)
				}
			}
			if !reflect.DeepEqual(st.GapLabels(), wantGaps) {
				t.Fatalf("nth=%d par=%d gap labels = %v, want %v", nth, par, st.GapLabels(), wantGaps)
			}
		}
	}
}

// TestDriverGapSlots runs the same property through real drivers: every
// rig-building grid restores its gapped cells' coordinates and leaves
// the surviving cells bit-identical to the unperturbed run.
func TestDriverGapSlots(t *testing.T) {
	silo := workloads.Silo()
	for _, par := range []int{1, 4} {
		opt := tinyOpts()
		opt.Parallelism = par
		chaos := opt
		chaos.Chaos = &resilience.Chaos{PanicNth: 2} // every second point, no retries

		sweep, gapped := SaturationSweep(silo, opt), SaturationSweep(silo, chaos)
		if want := (SweepPoint{Level: 0.6, Gap: true}); gapped.Points[1] != want || gapped.Points[0] != sweep.Points[0] {
			t.Fatalf("par=%d sweep slots: %+v", par, gapped.Points)
		}

		agree, agreeGapped := StreamAgreement(silo, opt), StreamAgreement(silo, chaos)
		if want := (AgreementPoint{Level: 0.6, Gap: true}); agreeGapped.Points[1] != want || agreeGapped.Points[0] != agree.Points[0] {
			t.Fatalf("par=%d stream slots: %+v", par, agreeGapped.Points)
		}

		lat := []time.Duration{0, time.Second}
		auto, autoGapped := AutoscaleScenario(lat, opt), AutoscaleScenario(lat, chaos)
		if want := (AutoscalePoint{Latency: time.Second, Gap: true}); autoGapped.Points[1] != want || autoGapped.Points[0] != auto.Points[0] {
			t.Fatalf("par=%d autoscale slots: %+v", par, autoGapped.Points)
		}
		if !reflect.DeepEqual(autoGapped.Gaps, []string{"autoscale latency=1s"}) {
			t.Fatalf("par=%d autoscale gap labels: %v", par, autoGapped.Gaps)
		}

		cards, cardsGapped := CardinalitySweep([]int{50, 100}, opt), CardinalitySweep([]int{50, 100}, chaos)
		if want := (CardinalityPoint{Keys: 100, Gap: true}); cardsGapped.Points[1] != want || cardsGapped.Points[0] != cards.Points[0] {
			t.Fatalf("par=%d cardinality slots: %+v", par, cardsGapped.Points)
		}

		cfgs := []netsim.Config{{}, {Delay: 10 * time.Millisecond, Loss: 0.01}}
		t2 := Table2([]workloads.Spec{silo}, cfgs, chaos)
		if !reflect.DeepEqual(t2[0].Gapped, []bool{true, true}) {
			t.Fatalf("par=%d table2 gapped blocks: %+v", par, t2)
		}
	}
}

// TestRunCellsDuplicateLabelPanics: two cells with one label would
// shadow each other's checkpoints on resume, so the grid is refused.
func TestRunCellsDuplicateLabelPanics(t *testing.T) {
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), `duplicate cell label "a"`) {
			t.Fatalf("recovered %v, want a duplicate-label panic", r)
		}
	}()
	RunCells(ExpOptions{}, "dup", []Cell{{Label: "a"}, {Label: "b"}, {Label: "a"}},
		func(PointCtx, Cell) int { return 0 }, nil)
}

// TestSharedOptionsReachEveryRig: the options every driver shares reach
// the two experiments that used to build their rigs by hand.
func TestSharedOptionsReachEveryRig(t *testing.T) {
	amd := Quick()
	intel := Quick()
	intel.Profile = machine.Intel()

	if a, i := IOUring(0.6, amd), IOUring(0.6, intel); a == i {
		t.Fatalf("IOUring ignores the hardware profile: %+v", a)
	}
	spec := workloads.DataCaching()
	a := Fig1(spec, 0.4, 100*time.Millisecond, amd)
	i := Fig1(spec, 0.4, 100*time.Millisecond, intel)
	if reflect.DeepEqual(a.Events, i.Events) {
		t.Fatal("Fig1 ignores the hardware profile")
	}

	killed := Quick()
	killed.Deadline = time.Nanosecond // expires before the first event fires
	res := IOUring(0.6, killed)
	if want := (IOUringResult{Gap: true}); res != want {
		t.Fatalf("IOUring under a 1ns budget = %+v, want a gap", res)
	}
	if out := RenderIOUring(res); !strings.Contains(out, gapMark) || strings.Contains(out, "0.0") {
		t.Fatalf("a lost run must render as a gap, not zeros:\n%s", out)
	}
}
