package core

import (
	"reqlens/internal/kernel"
	"reqlens/internal/probes"
	"reqlens/internal/telemetry"
)

// Attribution is the attached sketch-based attribution pipeline: one
// unfiltered sys_enter program feeding count-min and HashPipe maps, so
// "who is hammering this node" is answered wholly from map space at
// O(sketch) memory regardless of how many processes exist. It
// complements Observer, which tracks one tgid exactly; Attribution
// tracks every tgid approximately.
type Attribution struct {
	probe *probes.AttributionProbe
}

// AttachAttribution builds, verifies and attaches the attribution probe
// on k's tracer.
func AttachAttribution(k *kernel.Kernel, cfg probes.AttributionConfig) (*Attribution, error) {
	p, err := probes.NewAttributionProbe("attr", cfg)
	if err != nil {
		return nil, err
	}
	if err := p.Attach(k.Tracer()); err != nil {
		return nil, err
	}
	return &Attribution{probe: p}, nil
}

// MustAttachAttribution is AttachAttribution but panics on error.
func MustAttachAttribution(k *kernel.Kernel, cfg probes.AttributionConfig) *Attribution {
	return probes.Must(AttachAttribution(k, cfg))
}

// Scrape clones the cumulative sketch state. Scrapes are counters, not
// windows: aggregators merge them across nodes and diff them across
// time, exactly like Prometheus counter series.
func (a *Attribution) Scrape() probes.AttrSketches { return a.probe.Sketches() }

// TopOffenders is a convenience read-out of the current top-K busiest
// tgids from a fresh scrape.
func (a *Attribution) TopOffenders(k int) []probes.Offender {
	return a.Scrape().TopOffenders(k)
}

// ExactCounts returns the oracle's ground truth (nil without Oracle).
func (a *Attribution) ExactCounts() map[uint64]uint64 { return a.probe.ExactCounts() }

// Bytes is the sketch-side map footprint.
func (a *Attribution) Bytes() int { return a.probe.Bytes() }

// Instrument records the probe's verification cost into r.
func (a *Attribution) Instrument(r *telemetry.Registry) {
	recordVerifierCost(r, a.probe.Programs()...)
}
