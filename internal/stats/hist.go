package stats

import (
	"fmt"
	"math"
	"time"
)

// Histogram is a log-scaled latency histogram (HDR-style) covering
// 1 ns .. ~1193 h with bounded relative error, suitable for streaming
// p50/p99/p99.9 extraction without retaining samples.
//
// Values are bucketed into 64 exponents x subBuckets linear sub-buckets,
// giving a worst-case relative quantile error of 1/subBuckets.
type Histogram struct {
	counts [64][histSubBuckets]uint64
	total  uint64
	sum    float64
	max    int64
	min    int64
}

const histSubBuckets = 32

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{min: math.MaxInt64}
}

// Record adds one observation of v nanoseconds. Negative values count
// as zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	e, s := histBucket(v)
	h.counts[e][s]++
	h.total++
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
	if v < h.min {
		h.min = v
	}
}

// RecordDuration adds one observation of d.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

func histBucket(v int64) (exp, sub int) {
	if v < histSubBuckets {
		return 0, int(v)
	}
	exp = 63 - leadingZeros64(uint64(v))
	// Keep the top log2(subBuckets) bits after the leading one.
	shift := exp - 5 // log2(histSubBuckets) == 5
	if shift < 0 {
		shift = 0
	}
	sub = int((uint64(v) >> uint(shift)) & (histSubBuckets - 1))
	return exp, sub
}

func histBucketLow(exp, sub int) int64 {
	if exp == 0 {
		return int64(sub)
	}
	shift := exp - 5
	if shift < 0 {
		shift = 0
	}
	return (int64(1) << uint(exp)) | (int64(sub) << uint(shift))
}

func leadingZeros64(x uint64) int {
	n := 0
	if x == 0 {
		return 64
	}
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.total }

// Mean returns the mean observation in nanoseconds.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest recorded value (exact).
func (h *Histogram) Max() int64 {
	if h.total == 0 {
		return 0
	}
	return h.max
}

// Quantile returns an approximation of the q-th quantile in nanoseconds.
func (h *Histogram) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for e := 0; e < 64; e++ {
		for s := 0; s < histSubBuckets; s++ {
			c := h.counts[e][s]
			if c == 0 {
				continue
			}
			seen += c
			if seen >= target {
				v := histBucketLow(e, s)
				if v > h.max {
					v = h.max
				}
				if v < h.min {
					v = h.min
				}
				return v
			}
		}
	}
	return h.max
}

// P99 is shorthand for Quantile(0.99), the paper's headline tail metric.
func (h *Histogram) P99() int64 { return h.Quantile(0.99) }

// Reset clears the histogram.
func (h *Histogram) Reset() { *h = Histogram{min: math.MaxInt64} }

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		h.total, time.Duration(h.Mean()), time.Duration(h.Quantile(0.5)),
		time.Duration(h.P99()), time.Duration(h.Max()))
}
