package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Stat summarises the repetitions of one end-to-end metric.
type Stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

func newStat(unit string, vs []float64) Stat {
	st := Stat{Unit: unit, Median: median(vs), N: len(vs), Values: vs}
	for i, v := range vs {
		if i == 0 || v < st.Min {
			st.Min = v
		}
		if i == 0 || v > st.Max {
			st.Max = v
		}
	}
	return st
}

// calibSink keeps the calibration loop from being optimised away.
var calibSink uint64

// calibrate times a fixed pure-Go loop (no allocation, no memory
// traffic): the host's speed right now, in seconds. Run before and
// after a benchmark run, the pair shows drift on a shared host.
func calibrate() float64 {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 100_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink = x
	return time.Since(t0).Seconds()
}

// loadAbove reports whether the 1-minute load average already exceeds
// the CPU count (someone else is using the host). Unreadable = false.
func loadAbove() bool {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return false
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return false
	}
	l, err := strconv.ParseFloat(f[0], 64)
	return err == nil && l > float64(runtime.NumCPU())
}

// noisy is the noise guard's verdict on a calibration pair.
func noisy(before, after float64, loaded bool) bool {
	lo, hi := before, after
	if lo > hi {
		lo, hi = hi, lo
	}
	return loaded || (lo > 0 && (hi-lo)/lo > 0.10)
}
