package telemetry

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// AppendProm appends the registry in the Prometheus text exposition
// format (version 0.0.4) to dst and returns the extended slice:
// counters and gauges as single samples, histograms as cumulative
// le-labelled buckets plus _sum and _count. Output is sorted by
// instrument name within each kind, so two registries with equal
// contents serialize byte-identically. With room in dst it does not
// allocate.
//
// The serialization is pinned lossless for Series.Decode: integer-valued
// instruments print in base 10 (exact for every counter a simulation
// can reach) and float gauges print in strconv's 'g' format at
// precision -1 — the shortest representation that parses back to the
// same float64 bit pattern. The fleet scrape/merge plane depends on
// this round trip; TestPromRoundTripProperty enforces it. A nil registry
// appends nothing.
func (r *Registry) AppendProm(dst []byte) []byte {
	if r == nil {
		return dst
	}
	counters, gauges, fgauges, hists := r.tables()
	for _, e := range counters {
		dst = appendSample(appendType(dst, e.name, "counter"), e.name, " ")
		dst = append(strconv.AppendUint(dst, e.inst.Value(), 10), '\n')
	}
	for _, e := range gauges {
		dst = appendSample(appendType(dst, e.name, "gauge"), e.name, " ")
		dst = append(strconv.AppendInt(dst, e.inst.Value(), 10), '\n')
	}
	for _, e := range fgauges {
		dst = appendSample(appendType(dst, e.name, "gauge"), e.name, " ")
		dst = append(strconv.AppendFloat(dst, e.inst.Value(), 'g', -1, 64), '\n')
	}
	for _, e := range hists {
		h := e.inst
		dst = appendType(dst, e.name, "histogram")
		var cum uint64
		// The top bucket has no finite bound; +Inf covers it.
		for i := range h.buckets[:len(h.buckets)-1] {
			c := h.buckets[i].Load()
			if c == 0 {
				continue
			}
			cum += c
			dst = strconv.AppendInt(appendSample(dst, e.name, `_bucket{le="`), histHigh(i), 10)
			dst = append(strconv.AppendUint(append(dst, `"} `...), cum, 10), '\n')
		}
		dst = appendSample(dst, e.name, `_bucket{le="+Inf"} `)
		dst = append(strconv.AppendUint(dst, h.Count(), 10), '\n')
		dst = appendSample(dst, e.name, "_sum ")
		dst = append(strconv.AppendInt(dst, h.Sum(), 10), '\n')
		dst = appendSample(dst, e.name, "_count ")
		dst = append(strconv.AppendUint(dst, h.Count(), 10), '\n')
	}
	return dst
}

// appendType appends an instrument's "# TYPE" comment line.
func appendType(dst []byte, name, kind string) []byte {
	dst = append(append(dst, "# TYPE "...), name...)
	return append(append(append(dst, ' '), kind...), '\n')
}

// appendSample starts a sample line: the series name, up to the value.
func appendSample(dst []byte, name, rest string) []byte {
	return append(append(dst, name...), rest...)
}

// WriteProm writes AppendProm's rendering of the registry to w.
func (r *Registry) WriteProm(w io.Writer) error {
	_, err := w.Write(r.AppendProm(nil))
	return err
}

// decodeProm is the one reader of the exposition grammar: it calls
// sample for every sample line of text, in order, with the series name
// (labels, if any, stay part of it) and the value. It accepts what
// AppendProm emits plus blank lines — not general Prometheus text — and
// stops at the first malformed line with an error naming it.
func decodeProm(text []byte, sample func(name []byte, v float64)) error {
	for line := 1; len(text) > 0; line++ {
		row := text
		if nl := bytes.IndexByte(text, '\n'); nl >= 0 {
			row, text = text[:nl], text[nl+1:]
		} else {
			text = nil
		}
		row = bytes.TrimSpace(row)
		if len(row) == 0 || row[0] == '#' {
			continue
		}
		// name{labels} value | name value — the value is the last
		// space-separated field.
		sp := bytes.LastIndexByte(row, ' ')
		if sp < 0 {
			return fmt.Errorf("telemetry: prom line %d: no value in %q", line, row)
		}
		v, err := strconv.ParseFloat(string(row[sp+1:]), 64)
		if err != nil {
			return fmt.Errorf("telemetry: prom line %d: bad value %q: %v", line, row[sp+1:], err)
		}
		sample(bytes.TrimSpace(row[:sp]), v)
	}
	return nil
}

// Series is a decoded exposition: the sample names and their values, in
// text order.
type Series struct {
	Names  []string
	Values []float64
}

// Decode replaces s with the samples of text. It reuses s's storage,
// and the name strings of the previous decode wherever the same name
// sits at the same position, so decoding successive scrapes of one
// registry into one Series does not allocate. A malformed line leaves s
// empty.
func (s *Series) Decode(text []byte) error {
	// prev spans the whole array, so names dropped by a shorter or
	// failed decode are reused too. names grows over that same array,
	// one slot per sample, so slot i still holds prev's i-th name when
	// sample i arrives.
	prev, names, values := s.Names[:cap(s.Names)], s.Names[:0], s.Values[:0]
	s.Names, s.Values = names, values
	err := decodeProm(text, func(name []byte, v float64) {
		if i := len(names); i < len(prev) && prev[i] == string(name) {
			names = append(names, prev[i])
		} else {
			names = append(names, string(name))
		}
		values = append(values, v)
	})
	if err != nil {
		return err
	}
	s.Names, s.Values = names, values
	return nil
}

// ParseProm reads Prometheus text format back into a flat
// name -> value map. It is what the round-trip tests and the journal
// tooling use.
func ParseProm(r io.Reader) (map[string]float64, error) {
	text, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// Sized for AppendProm's shape: a TYPE line and a sample line each.
	out := make(map[string]float64, bytes.Count(text, []byte{'\n'})/2)
	if err := decodeProm(text, func(name []byte, v float64) { out[string(name)] = v }); err != nil {
		return nil, err
	}
	return out, nil
}
