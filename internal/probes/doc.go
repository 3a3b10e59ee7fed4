// Package probes contains the eBPF programs of the paper's
// methodology, written against the reqlens assembler and loaded through
// the verifier:
//
//   - DeltaProbe: in-kernel inter-syscall delta statistics for a
//     syscall family (count, sum, sum of squares, first/last
//     timestamps) — the machinery behind Eq. 1 (RPS_obsv = 1/mean
//     delta, Fig. 2) and Eq. 2 (variance of deltas, Fig. 3) computed
//     entirely in map space.
//   - PollProbe: Listing 1 generalized — entry/exit timestamp pairing
//     for poll syscalls (epoll_wait/select), accumulating call
//     durations for the saturation-slack signal (Fig. 4).
//   - StreamProbe: raw sys_enter/sys_exit records emitted to a ring
//     buffer for userspace analysis (the paper's initial exploration
//     mode, and Fig. 1's trace; `cmd/tracedump`).
//   - HistProbe: beyond the paper's minimum, a bcc-style in-kernel log2
//     latency histogram with atomically bumped bucket counters (the
//     Buckets map); QuantileUS interpolates quantiles from their counts.
//   - AttributionProbe: one unfiltered sys_enter program attributing
//     syscalls, sends and inter-syscall time to every tgid through
//     count-min sketches and a HashPipe top-K table; Sketches is its
//     read-out. It keeps no exact per-tgid count: tests take those from
//     a kernel.Tracer listener, which costs the traced threads nothing.
//
// NewDeltaProbe and NewPollProbe take a ring buffer (nil for
// aggregate-only): given one, the same programs additionally commit one
// fixed 32-byte MetricEvent record (timestamp, pid_tgid, syscall nr,
// delta/duration) into it via bpf_ringbuf_output, alongside the
// unchanged aggregate-map updates.
// DecodeEvent parses one consumed record; folding the events with the
// probes' own integer arithmetic reconstructs the aggregate maps
// bit-for-bit when the ring never overflowed.
//
// All programs but attribution's filter by tgid in-kernel, exactly as
// the paper's Listing 1 filters PID_TGID, so an attached probe observes
// one application.
//
// Every probe embeds one base: it loads each program with the shared
// exit tail and the ctx size of its tracepoint, and gives the probe
// Attach (all or nothing), Detach, Programs and Instrument, which
// records the verifier cost into a telemetry.Registry.
//
// Map sizes are package constants, not options: a probe's map space is
// fixed when it loads, as in the kernel. WaitStateProbe holds 61 440 B
// and AttributionProbe's sketches 200 704 B (Bytes reports both).
//
// Key entry points: NewDeltaProbe / NewPollProbe / NewStreamProbe /
// NewHistProbe / NewWaitStateProbe / NewAttributionProbe construct a
// probe (Must panics on the error instead); Attach loads it on a
// kernel.Tracer; Snapshot reads the in-map state, and StreamProbe.Drain
// decodes its ring into trace.Events. internal/core composes Delta and
// Poll probes into the windowed Observer API most callers want.
package probes
