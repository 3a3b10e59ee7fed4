// Package trace collects and analyzes syscall event streams: the
// userspace side of the paper's methodology. It offers the raw-event
// type (Event, which probes.StreamProbe decodes its ring records into),
// enter-time extraction over sorted traces (Section III "Observability
// Through Syscall Statistics"), enter/exit pairing for durations, and the
// setup / request-processing / shutdown phase classification of Fig. 1.
//
// Key entry points:
//
//   - Segment(events) — Fig. 1's lifecycle phases (PhaseSetup /
//     PhaseRequest / PhaseShutdown); PhaseOf and RequestOriented
//     classify single syscalls; CountByName builds the census.
//   - EnterTimes / PairDurations — the Section III statistics
//     pipeline over sorted events.
//   - Render — the ASCII trace dump behind `cmd/tracedump`.
//
// harness.Fig1 feeds a StreamProbe capture through Segment and
// CountByName to regenerate the paper's Fig. 1.
package trace
