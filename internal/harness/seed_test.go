package harness

import (
	"reflect"
	"testing"
	"time"

	"reqlens/internal/faults"
	"reqlens/internal/kernel"
	"reqlens/internal/sim"
	"reqlens/internal/workloads"
)

// TestLoadgenSeedStability is the load generator's determinism
// contract: identical seeds produce identical arrival sequences — the
// times of the client's first 250 sendto entries, seen by a
// ground-truth listener — (a) across engine Parallelism settings and
// (b) after a fault plan is armed and then cleared before firing:
// arming must consume no simulation entropy.
func TestLoadgenSeedStability(t *testing.T) {
	spec := workloads.Silo()
	collect := func(par int, armClear bool) [][]sim.Time {
		opt := ExpOptions{Parallelism: par}
		out, _ := runPoints(opt, "", []string{"p0", "p1"}, func(_ PointCtx, i int) []sim.Time {
			// Poisson pacing so arrivals depend on the seed (fixed-rate
			// pacing is deliberately seed-independent).
			rig := NewRig(spec, RigOptions{
				Seed: 7 + int64(i), Rate: 0.5 * spec.FailureRPS,
				Probes: true, Poisson: true,
			})
			defer rig.Close()
			var sends []sim.Time
			rig.ClientK.Tracer().AddListener(func(ev kernel.SyscallEvent) {
				if ev.Enter && ev.NR == kernel.SysSendto && int(ev.Thread.PidTgid()>>32) == rig.Client.TGID() && len(sends) < 250 {
					sends = append(sends, ev.Time)
				}
			})
			if armClear {
				// Every injector kind, scheduled far in the future, then
				// cleared before anything fires.
				ctl := rig.Arm(faults.Plan{Name: "pending", Seed: 99, Faults: []faults.Fault{
					{Kind: faults.CPUOffline, Start: time.Second},
					{Kind: faults.MigrationStorm, Start: time.Second},
					{Kind: faults.ClockJitter, Start: time.Second},
					{Kind: faults.NoisyNeighbor, Start: time.Second},
					{Kind: faults.RingStall, Start: time.Second, Duration: time.Second},
					{Kind: faults.ProbeChurn, Start: time.Second, Duration: time.Second},
				}})
				rig.Advance(10 * time.Millisecond)
				ctl.Clear()
				rig.Advance(290 * time.Millisecond)
			} else {
				rig.Advance(300 * time.Millisecond)
			}
			return sends
		})
		return out
	}

	base := collect(1, false)
	for i, a := range base {
		if len(a) != 250 {
			t.Fatalf("point %d captured %d arrivals, want 250", i, len(a))
		}
	}
	if base[0][0] == base[1][0] && base[0][249] == base[1][249] {
		t.Fatal("different seeds produced identical arrival sequences")
	}
	if par := collect(4, false); !reflect.DeepEqual(base, par) {
		t.Fatal("arrival sequences differ across Parallelism settings")
	}
	if cleared := collect(1, true); !reflect.DeepEqual(base, cleared) {
		t.Fatal("arming-then-clearing a fault plan perturbed the arrival sequence")
	}
}
