package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.total != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram should report zeros")
	}
}

func TestHistogramExactSmallValues(t *testing.T) {
	h := NewHistogram()
	for v := int64(0); v < histSubBuckets; v++ {
		h.Record(v)
	}
	if h.min != 0 || h.Max() != histSubBuckets-1 {
		t.Fatalf("min/max = %d/%d", h.min, h.Max())
	}
	if got := h.Quantile(0.0); got != 0 {
		t.Fatalf("q0 = %d", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.min != 0 {
		t.Fatalf("negative should clamp to 0, min = %d", h.min)
	}
}

func TestHistogramMeanExact(t *testing.T) {
	h := NewHistogram()
	vals := []int64{100, 200, 300, 1000, 5000}
	var sum int64
	for _, v := range vals {
		h.Record(v)
		sum += v
	}
	want := float64(sum) / float64(len(vals))
	if h.Mean() != want {
		t.Fatalf("Mean = %v, want %v", h.Mean(), want)
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewHistogram()
	var raw []float64
	for i := 0; i < 50000; i++ {
		// Lognormal-ish latency distribution, scale ~1ms.
		v := int64(math.Exp(rng.NormFloat64()*0.7+13) + 1000)
		h.Record(v)
		raw = append(raw, float64(v))
	}
	sort.Float64s(raw)
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		exact := quantileSorted(raw, q)
		got := float64(h.Quantile(q))
		relErr := math.Abs(got-exact) / exact
		if relErr > 0.05 {
			t.Fatalf("q=%v: hist %v vs exact %v (rel err %.3f)", q, got, exact, relErr)
		}
	}
}

func TestHistogramRecordDuration(t *testing.T) {
	h := NewHistogram()
	h.RecordDuration(3 * time.Millisecond)
	if h.Max() != int64(3*time.Millisecond) {
		t.Fatalf("Max = %d", h.Max())
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(123456)
	h.Reset()
	if h.total != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear histogram")
	}
	h.Record(7)
	if h.min != 7 {
		t.Fatalf("Min after reset+record = %d", h.min)
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	h.Record(int64(time.Millisecond))
	if s := h.String(); s == "" {
		t.Fatal("empty String()")
	}
}

// Property: quantile estimates are monotone in q and bounded by [min,max].
func TestPropertyHistogramQuantileMonotone(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram()
		for _, r := range raw {
			h.Record(int64(r))
		}
		prev := int64(-1)
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
			v := h.Quantile(q)
			if v < prev || v < h.min || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a recorded value's bucket lower bound never exceeds the value,
// and the bucket's relative width is bounded (~1/subBuckets above 2^6).
func TestPropertyHistogramBucketError(t *testing.T) {
	f := func(v uint32) bool {
		x := int64(v)
		e, s := histBucket(x)
		lo := histBucketLow(e, s)
		if lo > x {
			return false
		}
		if x >= 64 {
			// relative error of the bucket floor
			if float64(x-lo)/float64(x) > 2.0/histSubBuckets {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
