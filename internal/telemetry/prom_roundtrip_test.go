package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// The fleet aggregation plane scrapes each node's WriteProm text and
// reconstructs values with ParseProm; a lossy round trip would silently
// corrupt every rollup. These tests pin the contract:
//
//   - every counter, gauge and float-gauge value survives write->parse
//     bit-exactly (float gauges via shortest-form 'g' formatting,
//     integers via base-10 within float64's exact range),
//   - histogram _sum and _count are exact and the le-labelled buckets
//     are emitted in increasing-bound order with non-decreasing
//     cumulative counts capped by _count,
//   - serialization is canonical: equal registries produce identical
//     bytes, so scrape comparisons can be byte-level.

// writePromReference is the fmt-based encoder AppendProm replaced, kept
// as its oracle. It shares nothing with AppendProm but histHigh: names
// are sorted here, not taken in table order.
func writePromReference(r *Registry) []byte {
	var buf bytes.Buffer
	if r == nil {
		return nil
	}
	counters, gauges, fgauges, hists := r.tables()
	sorted := func(n int, name func(int) string) []int {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return name(idx[a]) < name(idx[b]) })
		return idx
	}
	for _, i := range sorted(len(counters), func(i int) string { return counters[i].name }) {
		name := counters[i].name
		fmt.Fprintf(&buf, "# TYPE %s counter\n%s %d\n", name, name, counters[i].inst.Value())
	}
	for _, i := range sorted(len(gauges), func(i int) string { return gauges[i].name }) {
		name := gauges[i].name
		fmt.Fprintf(&buf, "# TYPE %s gauge\n%s %d\n", name, name, gauges[i].inst.Value())
	}
	for _, i := range sorted(len(fgauges), func(i int) string { return fgauges[i].name }) {
		name := fgauges[i].name
		fmt.Fprintf(&buf, "# TYPE %s gauge\n%s %s\n", name, name,
			strconv.FormatFloat(fgauges[i].inst.Value(), 'g', -1, 64))
	}
	for _, i := range sorted(len(hists), func(i int) string { return hists[i].name }) {
		name, h := hists[i].name, hists[i].inst
		fmt.Fprintf(&buf, "# TYPE %s histogram\n", name)
		var cum uint64
		for i := range h.buckets {
			c := h.buckets[i].Load()
			if c == 0 {
				continue
			}
			cum += c
			if i+1 >= len(h.buckets) {
				continue // top bucket has no finite bound; +Inf covers it
			}
			fmt.Fprintf(&buf, "%s_bucket{le=\"%d\"} %d\n", name, histHigh(i), cum)
		}
		fmt.Fprintf(&buf, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count())
		fmt.Fprintf(&buf, "%s_sum %d\n", name, h.Sum())
		fmt.Fprintf(&buf, "%s_count %d\n", name, h.Count())
	}
	return buf.Bytes()
}

// The values an exporter can reach that a careless encoder or decoder
// gets wrong: the float specials, signed zero, subnormals, and the
// integer extremes (past float64's exact range, so the decimal text and
// the live value must round the same way).
var (
	edgeFloats   = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -2.5e-310, math.MaxFloat64}
	edgeCounters = []uint64{0, 1 << 53, 1<<53 + 1, math.MaxUint64}
	edgeGauges   = []int64{math.MinInt64, math.MaxInt64, -1}
	// Histogram observations on both sides of the linear/log seam
	// (histSub), around the first full exponent, and at the largest
	// value there is.
	edgeObservations = []int64{0, histSub - 1, histSub, histSub + 1, 2*histSub - 1, 2 * histSub, 63, 64, 65, math.MaxInt64}
)

// TestPromRoundTripProperty drives randomized registries — all four
// kinds, the edge values above, and the empty and nil registries —
// through every encoder and decoder entry point: AppendProm, WriteProm
// and the reference encoder must agree byte for byte, Series.Decode and
// ParseProm must agree bit for bit, and every reconstructed value must
// equal the live instrument.
func TestPromRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		r := New()
		type inst struct {
			name string
			want float64
		}
		var insts []inst
		edge := func() bool { return rng.Intn(4) == 0 }

		for i, n := 0, rng.Intn(6); i < n; i++ {
			name := fmt.Sprintf("ctr_%d", i)
			v := rng.Uint64() >> uint(11+rng.Intn(40)) // within float64's exact range
			if edge() {
				v = edgeCounters[rng.Intn(len(edgeCounters))]
			}
			r.Counter(name).Add(v)
			insts = append(insts, inst{name, float64(v)})
		}
		for i, n := 0, rng.Intn(6); i < n; i++ {
			name := fmt.Sprintf("gauge_%d", i)
			v := rng.Int63n(1<<52) - 1<<51
			if edge() {
				v = edgeGauges[rng.Intn(len(edgeGauges))]
			}
			r.Gauge(name).Set(v)
			insts = append(insts, inst{name, float64(v)})
		}
		for i, n := 0, rng.Intn(6); i < n; i++ {
			name := fmt.Sprintf("fgauge_%d", i)
			// Exercise the formats a node exporter actually emits:
			// rates, variances, tiny and huge magnitudes, negatives.
			v := math.Exp(rng.Float64()*40-20) * float64(1-2*rng.Intn(2))
			if rng.Intn(8) == 0 {
				v = 0
			}
			if edge() {
				v = edgeFloats[rng.Intn(len(edgeFloats))]
			}
			r.FloatGauge(name).Set(v)
			insts = append(insts, inst{name, v})
		}
		nhist := rng.Intn(3)
		for i := 0; i < nhist; i++ {
			h := r.Histogram(fmt.Sprintf("hist_%d", i))
			for o, n := 0, rng.Intn(200); o < n; o++ {
				h.Observe(rng.Int63n(1 << uint(1+rng.Intn(40))))
			}
			for o, n := 0, rng.Intn(4); o < n; o++ {
				h.Observe(edgeObservations[rng.Intn(len(edgeObservations))])
			}
		}
		switch trial {
		case 0:
			r, insts, nhist = New(), nil, 0 // empty: encodes to nothing
		case 1:
			r, insts, nhist = nil, nil, 0 // disabled telemetry
		case 2:
			// No int64 observation reaches the top bucket (exponent 63);
			// a count there has no finite bound and prints as +Inf alone.
			h := r.Histogram("hist_top")
			h.buckets[len(h.buckets)-1].Add(1)
			h.count.Add(1)
			if got := string(r.AppendProm(nil)); !strings.Contains(got, "# TYPE hist_top histogram\nhist_top_bucket{le=\"+Inf\"} 1\n") {
				t.Fatalf("top-bucket-only histogram must print +Inf alone:\n%s", got)
			}
		}

		text := r.AppendProm(nil)
		var buf bytes.Buffer
		if err := r.WriteProm(&buf); err != nil {
			t.Fatalf("trial %d: WriteProm: %v", trial, err)
		}
		if ref := writePromReference(r); !bytes.Equal(text, ref) || !bytes.Equal(buf.Bytes(), ref) {
			t.Fatalf("trial %d: encoders disagree\nAppendProm:\n%s\nWriteProm:\n%s\nreference:\n%s", trial, text, buf.Bytes(), ref)
		}
		// Appending extends dst and leaves what it held alone.
		if got := r.AppendProm([]byte("prefix\n")); string(got) != "prefix\n"+string(text) {
			t.Fatalf("trial %d: AppendProm onto a non-empty dst:\n%s", trial, got)
		}

		got, err := ParseProm(bytes.NewReader(text))
		if err != nil {
			t.Fatalf("trial %d: ParseProm: %v\n%s", trial, err, text)
		}
		var view Series
		if err := view.Decode(text); err != nil {
			t.Fatalf("trial %d: Decode: %v\n%s", trial, err, text)
		}
		if len(view.Names) != len(got) || len(view.Values) != len(got) {
			t.Fatalf("trial %d: view has %d names / %d values, map %d entries", trial, len(view.Names), len(view.Values), len(got))
		}
		for i, name := range view.Names {
			if v, ok := got[name]; !ok || math.Float64bits(v) != math.Float64bits(view.Values[i]) {
				t.Fatalf("trial %d: %s decodes to %v in the view, %v (present %v) in the map", trial, name, view.Values[i], v, ok)
			}
		}

		for _, in := range insts {
			v, ok := got[in.name]
			if !ok {
				t.Fatalf("trial %d: %s missing from parsed export", trial, in.name)
			}
			if math.Float64bits(v) != math.Float64bits(in.want) { // bit-exact, not approximate
				t.Fatalf("trial %d: %s round-tripped %v -> %v", trial, in.name, in.want, v)
			}
		}
		for i := 0; i < nhist; i++ {
			name := fmt.Sprintf("hist_%d", i)
			h := r.Histogram(name)
			if got[name+"_sum"] != float64(h.Sum()) || got[name+"_count"] != float64(h.Count()) {
				t.Fatalf("trial %d: %s sum/count mismatch: parsed (%v, %v) want (%d, %d)",
					trial, name, got[name+"_sum"], got[name+"_count"], h.Sum(), h.Count())
			}
			checkBucketOrdering(t, string(text), name, h.Count())
		}

		// Canonical bytes: re-serializing the same registry must be
		// byte-identical (the scraper diffs exports directly).
		if again := r.AppendProm(nil); !bytes.Equal(text, again) {
			t.Fatalf("trial %d: serialization is not canonical", trial)
		}
	}
}

// TestPromSteadyStateAllocs pins the scrape plane's budget at its
// source: encoding into a buffer with room and decoding into a Series
// that has seen the exposition's shape both allocate nothing.
func TestPromSteadyStateAllocs(t *testing.T) {
	r := New()
	r.Counter("reqs_total").Add(12345)
	r.Gauge("inflight").Set(-3)
	r.FloatGauge("rps").Set(61234.56789)
	h := r.Histogram("lat_ns")
	for v := int64(1); v < 1<<20; v *= 3 {
		h.Observe(v)
	}
	buf := r.AppendProm(nil)
	if n := testing.AllocsPerRun(100, func() { buf = r.AppendProm(buf[:0]) }); n != 0 {
		t.Errorf("AppendProm into a sized buffer: %v allocs, want 0", n)
	}
	var view Series
	if err := view.Decode(buf); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		r.Counter("reqs_total").Inc() // values move between scrapes; names do not
		buf = r.AppendProm(buf[:0])
		if err := view.Decode(buf); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("steady-state encode + decode: %v allocs, want 0", n)
	}
}

// TestSeriesReuseMatchesFreshDecode is the stale-state check on the
// reusable view: whatever a Series decoded before — a longer exposition,
// a shorter one, the same names shifted by an instrument registered
// mid-run, a malformed one — decoding into it must leave exactly what
// decoding into a new Series leaves.
func TestSeriesReuseMatchesFreshDecode(t *testing.T) {
	r := New()
	r.Counter("sim_events_total").Add(10)
	r.FloatGauge("node_obsv_rps").Set(1.5)
	small := r.AppendProm(nil)
	r.FloatGauge("node_wait_runnable_share").Set(0.25) // appears only with wait states on
	r.Counter("aaa_first_total").Inc()                 // sorts first: shifts every later slot
	r.Histogram("lat_ns").Observe(9)
	large := r.AppendProm(nil)

	var reused Series
	for step, text := range [][]byte{small, large, small, large, nil, large} {
		if err := reused.Decode(text); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		var fresh Series
		if err := fresh.Decode(text); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(fresh.Names) != len(reused.Names) || len(fresh.Values) != len(reused.Values) ||
			(len(fresh.Names) > 0 && (!reflect.DeepEqual(fresh.Names, reused.Names) || !reflect.DeepEqual(fresh.Values, reused.Values))) {
			t.Fatalf("step %d: reused view diverges from a fresh decode\nreused: %v %v\nfresh:  %v %v",
				step, reused.Names, reused.Values, fresh.Names, fresh.Values)
		}
	}

	// A malformed line reports its line number, in the text ParseProm has
	// always used, and leaves nothing half-written behind.
	for _, c := range []struct{ text, want string }{
		{"a 1\n# c\nnovalue\nb 2\n", `telemetry: prom line 3: no value in "novalue"`},
		{"a 1\n\nb x1\n", `telemetry: prom line 3: bad value "x1": strconv.ParseFloat: parsing "x1": invalid syntax`},
	} {
		err := reused.Decode([]byte(c.text))
		if err == nil || err.Error() != c.want {
			t.Fatalf("Decode(%q) error = %v, want %s", c.text, err, c.want)
		}
		if len(reused.Names) != 0 || len(reused.Values) != 0 {
			t.Fatalf("failed decode left %v %v behind", reused.Names, reused.Values)
		}
		if _, perr := ParseProm(strings.NewReader(c.text)); perr == nil || perr.Error() != c.want {
			t.Fatalf("ParseProm(%q) error = %v, want %s", c.text, perr, c.want)
		}
	}
	if err := reused.Decode(large); err != nil {
		t.Fatal(err)
	}
	var fresh Series
	if err := fresh.Decode(large); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, reused) {
		t.Fatalf("view after a failed decode diverges: %v vs %v", reused, fresh)
	}
}

// TestParsePromLongLine pins that a sample line has no length limit
// (bufio.Scanner's 64 KiB token limit used to fail it).
func TestParsePromLongLine(t *testing.T) {
	name := `x{label="` + strings.Repeat("a", 70_000) + `"}`
	m, err := ParseProm(strings.NewReader("first 1\n" + name + " 2.5\nlast 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 3 || m[name] != 2.5 || m["last"] != 3 {
		t.Fatalf("long line lost: %d entries, long = %v, last = %v", len(m), m[name], m["last"])
	}
}

// checkBucketOrdering scans the raw export for one histogram's
// le-labelled bucket lines and asserts increasing bounds, non-decreasing
// cumulative counts, and a final +Inf bucket equal to _count.
func checkBucketOrdering(t *testing.T, export, name string, count uint64) {
	t.Helper()
	prefix := name + "_bucket{le=\""
	lastBound := int64(-1)
	lastCum := uint64(0)
	sawInf := false
	for _, line := range strings.Split(export, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := strings.TrimPrefix(line, prefix)
		end := strings.Index(rest, "\"}")
		if end < 0 {
			t.Fatalf("%s: malformed bucket line %q", name, line)
		}
		bound, cumStr := rest[:end], strings.TrimSpace(rest[end+2:])
		cum, err := strconv.ParseUint(cumStr, 10, 64)
		if err != nil {
			t.Fatalf("%s: bad cumulative count in %q: %v", name, line, err)
		}
		if cum < lastCum {
			t.Fatalf("%s: cumulative counts decreased (%d after %d) in %q", name, cum, lastCum, line)
		}
		lastCum = cum
		if bound == "+Inf" {
			sawInf = true
			if cum != count {
				t.Fatalf("%s: +Inf bucket %d != count %d", name, cum, count)
			}
			continue
		}
		if sawInf {
			t.Fatalf("%s: finite bucket after +Inf: %q", name, line)
		}
		b, err := strconv.ParseInt(bound, 10, 64)
		if err != nil {
			t.Fatalf("%s: bad bound in %q: %v", name, line, err)
		}
		if b <= lastBound {
			t.Fatalf("%s: bucket bounds not increasing (%d after %d)", name, b, lastBound)
		}
		lastBound = b
	}
	if count > 0 && !sawInf {
		t.Fatalf("%s: no +Inf bucket in export", name)
	}
}

// TestFloatGaugeFormatPinned pins the exact float syntax WriteProm
// emits: strconv.FormatFloat(v, 'g', -1, 64), whose shortest form is
// guaranteed to parse back to the identical bits.
func TestFloatGaugeFormatPinned(t *testing.T) {
	r := New()
	cases := []float64{0, 1, -1, 0.1, 2.5e-09, 1.2345678901234567e+17, 62000.25}
	for i, v := range cases {
		r.FloatGauge(fmt.Sprintf("f_%02d", i)).Set(v)
	}
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	for i, v := range cases {
		want := fmt.Sprintf("f_%02d %s\n", i, strconv.FormatFloat(v, 'g', -1, 64))
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("export missing pinned line %q:\n%s", want, buf.String())
		}
	}
	got, err := ParseProm(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range cases {
		name := fmt.Sprintf("f_%02d", i)
		if math.Float64bits(got[name]) != math.Float64bits(v) {
			t.Fatalf("%s: parsed %v, want %v (bit-exact)", name, got[name], v)
		}
	}
}

// TestFloatGaugeMergeAndSnapshot covers the registry plumbing the fleet
// merge path relies on: float gauges merge by addition and appear in
// Snapshot.
func TestFloatGaugeMergeAndSnapshot(t *testing.T) {
	a, b := New(), New()
	a.FloatGauge("x").Set(1.5)
	b.FloatGauge("x").Set(2.25)
	b.FloatGauge("y").Add(3)
	a.Merge(b)
	if v := a.FloatGauge("x").Value(); v != 3.75 {
		t.Fatalf("merged x = %v, want 3.75", v)
	}
	snap := a.Snapshot()
	if snap["x"] != 3.75 || snap["y"] != 3 {
		t.Fatalf("snapshot = %v", snap)
	}

	var nilReg *Registry
	if g := nilReg.FloatGauge("z"); g != nil {
		t.Fatal("nil registry must return nil float gauge")
	}
	var nilG *FloatGauge
	nilG.Set(1)
	nilG.Add(1)
	if nilG.Value() != 0 {
		t.Fatal("nil float gauge must read zero")
	}
}
