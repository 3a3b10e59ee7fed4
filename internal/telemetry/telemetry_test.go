package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(100)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("nil histogram stats must read zero")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
	r.Merge(New())
	New().Merge(r)
	if err := r.WriteProm(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if out := r.AppendProm([]byte("kept")); string(out) != "kept" {
		t.Fatalf("nil registry appended %q", out)
	}
}

func TestCounterGauge(t *testing.T) {
	r := New()
	c := r.Counter("reqs_total")
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("counter = %d, want 10", c.Value())
	}
	if r.Counter("reqs_total") != c {
		t.Fatal("same name must return the same counter")
	}
	g := r.Gauge("inflight")
	g.Set(4)
	g.Add(-3)
	if g.Value() != 1 {
		t.Fatalf("gauge = %d, want 1", g.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("lat_ns")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	h.Observe(-5) // counts as zero
	if h.Count() != 1001 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1000 {
		t.Fatalf("max = %d", h.Max())
	}
	p50 := h.Quantile(0.5)
	// Log-linear buckets: worst-case relative error 1/histSub.
	if p50 < 350 || p50 > 650 {
		t.Fatalf("p50 = %d, want ~500", p50)
	}
	if q := h.Quantile(1); q != 1000 {
		t.Fatalf("p100 = %d, want 1000 (clamped to max)", q)
	}
	if h.Quantile(0) == 0 && h.Count() > 0 && h.Quantile(0) > h.Max() {
		t.Fatal("q0 out of range")
	}
	if m := h.Mean(); m < 400 || m > 600 {
		t.Fatalf("mean = %v", m)
	}
}

func TestMergeCommutative(t *testing.T) {
	build := func(seed int64) *Registry {
		r := New()
		r.Counter("events").Add(uint64(10 * seed))
		r.Gauge("depth").Add(seed)
		h := r.Histogram("wall")
		for v := int64(1); v <= 100*seed; v++ {
			h.Observe(v)
		}
		return r
	}
	a, b, c := build(1), build(2), build(3)

	ab := New()
	ab.Merge(a)
	ab.Merge(b)
	ab.Merge(c)
	ba := New()
	ba.Merge(c)
	ba.Merge(b)
	ba.Merge(a)

	sa, sb := ab.Snapshot(), ba.Snapshot()
	if len(sa) != len(sb) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(sa), len(sb))
	}
	for k, v := range sa {
		if sb[k] != v {
			t.Fatalf("merge not commutative at %s: %v vs %v", k, v, sb[k])
		}
	}
	if sa["events"] != 60 || sa["depth"] != 6 || sa["wall_count"] != 600 {
		t.Fatalf("merged totals wrong: %v", sa)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := New()
	c := r.Counter("n")
	h := r.Histogram("h")
	g := r.Gauge("g")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
				g.Add(1)
				g.Add(-1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Fatalf("hist count = %d, want 8000", h.Count())
	}
	if g.Value() != 0 {
		t.Fatalf("gauge = %d, want 0", g.Value())
	}
}

// TestConcurrentRegistrationAndExport races registration against every
// reader of the instrument tables: while some goroutines register new
// names (every name from every writer) and update them,
// exporters, snapshotters and mergers run. Every exposition must decode,
// list each kind's names in strictly increasing order — sorted, and no
// instrument twice — and end up complete. Run under -race by
// scripts/check.sh.
func TestConcurrentRegistrationAndExport(t *testing.T) {
	const writers, perWriter, readers = 4, 40, 3
	r := New()
	c := r.Counter("c_hot")
	var writing, reading sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writing.Add(1)
		go func(w int) {
			defer writing.Done()
			for i := 0; i < perWriter; i++ {
				// Every writer registers every name, each in its own order.
				n := (i*7 + w*11) % perWriter
				r.Counter(fmt.Sprintf("c_%03d", n)).Inc()
				r.Gauge(fmt.Sprintf("g_%03d", n)).Add(1)
				r.FloatGauge(fmt.Sprintf("f_%03d", n)).Set(float64(n))
				r.Histogram(fmt.Sprintf("h_%03d", n)).Observe(int64(n))
				c.Inc()
			}
		}(w)
	}
	check := func(text []byte) {
		var view Series
		if err := view.Decode(text); err != nil {
			t.Errorf("exposition does not decode: %v", err)
			return
		}
		last := map[byte]string{} // per kind, keyed by the name's first letter
		for _, line := range strings.Split(string(text), "\n") {
			if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
				name, _, _ = strings.Cut(name, " ")
				if prev := last[name[0]]; name <= prev {
					t.Errorf("%s exported after %s: unsorted or duplicated", name, prev)
				}
				last[name[0]] = name
			}
		}
	}
	for g := 0; g < readers; g++ {
		reading.Add(1)
		go func() {
			defer reading.Done()
			var buf []byte
			into := New()
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = r.AppendProm(buf[:0])
				check(buf)
				r.Snapshot()
				into.Merge(r)
			}
		}()
	}
	writing.Wait()
	close(stop)
	reading.Wait()

	final := r.AppendProm(nil)
	check(final)
	snap := r.Snapshot()
	if got, want := len(snap), 1+perWriter*(3+3); got != want {
		t.Fatalf("snapshot has %d series, want %d", got, want)
	}
	if snap["c_hot"] != writers*perWriter || snap["c_007"] != writers {
		t.Fatalf("lost updates: c_hot = %v, c_007 = %v", snap["c_hot"], snap["c_007"])
	}
}

func TestWritePromRoundTrip(t *testing.T) {
	r := New()
	r.Counter("sim_events_total").Add(1234)
	r.Gauge("points_in_flight").Set(3)
	h := r.Histogram("point_wall_ns")
	h.Observe(100)
	h.Observe(200000)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE sim_events_total counter",
		"sim_events_total 1234",
		"# TYPE points_in_flight gauge",
		"points_in_flight 3",
		"# TYPE point_wall_ns histogram",
		`point_wall_ns_bucket{le="+Inf"} 2`,
		"point_wall_ns_sum 200100",
		"point_wall_ns_count 2",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prom output missing %q:\n%s", want, text)
		}
	}

	parsed, err := ParseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if parsed["sim_events_total"] != 1234 {
		t.Fatalf("parsed counter = %v", parsed["sim_events_total"])
	}
	if parsed["points_in_flight"] != 3 {
		t.Fatalf("parsed gauge = %v", parsed["points_in_flight"])
	}
	if parsed["point_wall_ns_count"] != 2 {
		t.Fatalf("parsed hist count = %v", parsed["point_wall_ns_count"])
	}
	if parsed[`point_wall_ns_bucket{le="+Inf"}`] != 2 {
		t.Fatalf("parsed +Inf bucket = %v", parsed[`point_wall_ns_bucket{le="+Inf"}`])
	}

	// Deterministic ordering: two registries with equal contents must
	// serialize byte-identically.
	var buf2 bytes.Buffer
	r2 := New()
	r2.Merge(r)
	if err := r2.WriteProm(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf.String() != buf2.String() {
		t.Fatal("equal registries serialized differently")
	}
}

func TestParsePromErrors(t *testing.T) {
	if _, err := ParseProm(strings.NewReader("novalue")); err == nil {
		t.Fatal("want error for line without value")
	}
	if _, err := ParseProm(strings.NewReader("x notanumber")); err == nil {
		t.Fatal("want error for non-numeric value")
	}
	m, err := ParseProm(strings.NewReader("\n# comment\n\nx 1\n"))
	if err != nil || m["x"] != 1 {
		t.Fatalf("parse = %v, %v", m, err)
	}
}

func TestHistogramBucketsCoverRange(t *testing.T) {
	h := New().Histogram("h")
	vals := []int64{0, 1, 7, 8, 9, 255, 256, 1 << 20, 1 << 40, 1<<62 + 12345}
	for _, v := range vals {
		h.Observe(v)
	}
	if h.Count() != uint64(len(vals)) {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 1<<62+12345 {
		t.Fatalf("max = %d", h.Max())
	}
	// Quantile must stay within [0, max] everywhere.
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		v := h.Quantile(q)
		if v < 0 || v > h.Max() {
			t.Fatalf("quantile(%v) = %d out of range", q, v)
		}
	}
}
