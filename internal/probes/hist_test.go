package probes

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"reqlens/internal/kernel"
)

// bucketCounts reads p's per-bucket counts: counts[i] holds durations
// in [2^i, 2^(i+1)) microseconds.
func bucketCounts(p *HistProbe) (counts [histBuckets]uint64) {
	for i := range counts {
		counts[i] = binary.LittleEndian.Uint64(p.Buckets.At(i))
	}
	return counts
}

func TestHistProbeBucketsDurations(t *testing.T) {
	env, k := rig(2)
	srv := k.NewProcess("srv")
	probe := Must(NewHistProbe("poll", srv.TGID(), []int{kernel.SysEpollWait}))
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	// 10 polls of ~100us (bucket 6: 64..128us) and 5 of ~5ms
	// (bucket 12: 4096..8192us).
	srv.SpawnThread("w", func(th *kernel.Thread) {
		for i := 0; i < 10; i++ {
			th.Syscall(kernel.SysEpollWait, [6]uint64{}, kernel.Sleeping(100*time.Microsecond, 0))
		}
		for i := 0; i < 5; i++ {
			th.Syscall(kernel.SysEpollWait, [6]uint64{}, kernel.Sleeping(5*time.Millisecond, 0))
		}
	})
	env.Run()
	if err := k.Tracer().LastError(); err != nil {
		t.Fatalf("probe faults: %v", err)
	}
	counts := bucketCounts(probe)
	if counts[6] != 10 {
		t.Fatalf("bucket 6 (64-128us) = %d, want 10; all: %v", counts[6], counts)
	}
	if counts[12] != 5 {
		t.Fatalf("bucket 12 (4-8ms) = %d, want 5; all: %v", counts[12], counts)
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total != 15 {
		t.Fatalf("total = %d, want 15", total)
	}

	// Quantiles from the log2 histogram.
	p50 := QuantileUS(counts, 0.5)
	if p50 < 64 || p50 > 181 {
		t.Fatalf("p50 = %v us, want in the 100us bucket", p50)
	}
	p99 := QuantileUS(counts, 0.99)
	if p99 < 4096 || p99 > 11586 {
		t.Fatalf("p99 = %v us, want in the 5ms bucket", p99)
	}
}

func TestHistProbeSubMicrosecondGoesToBucketZero(t *testing.T) {
	env, k := rig(1)
	srv := k.NewProcess("srv")
	probe := Must(NewHistProbe("poll", srv.TGID(), []int{kernel.SysEpollWait}))
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	srv.SpawnThread("w", func(th *kernel.Thread) {
		th.Syscall(kernel.SysEpollWait, [6]uint64{}, kernel.Sleeping(200*time.Nanosecond, 0))
	})
	env.Run()
	counts := bucketCounts(probe)
	if counts[0] != 1 {
		t.Fatalf("bucket 0 = %d, want the sub-us duration; all: %v", counts[0], counts)
	}
}

func TestQuantileUSEmpty(t *testing.T) {
	var empty [histBuckets]uint64
	if got := QuantileUS(empty, 0.5); got != 0 {
		t.Fatalf("empty quantile = %v", got)
	}
}

func TestQuantileUSMonotone(t *testing.T) {
	var counts [histBuckets]uint64
	counts[3], counts[7], counts[15] = 10, 10, 10
	prev := 0.0
	for _, q := range []float64{0.1, 0.4, 0.7, 0.99} {
		v := QuantileUS(counts, q)
		if v < prev {
			t.Fatalf("quantiles not monotone at q=%v: %v < %v", q, v, prev)
		}
		prev = v
	}
	if math.IsNaN(prev) {
		t.Fatal("NaN quantile")
	}
}
