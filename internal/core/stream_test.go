package core

import (
	"testing"
	"time"

	"reqlens/internal/ebpf"
	"reqlens/internal/kernel"
	"reqlens/internal/telemetry"
)

func streamConfig(tgid int) Config {
	return Config{
		TGID:         tgid,
		SendSyscalls: []int{kernel.SysSendto},
		RecvSyscalls: []int{kernel.SysRecvfrom},
		PollSyscalls: []int{kernel.SysEpollWait},
	}
}

// requestLoop is the canonical simulated server loop: poll, recv,
// compute, send.
func requestLoop(th *kernel.Thread, n int) {
	for i := 0; i < n; i++ {
		th.Syscall(kernel.SysEpollWait, [6]uint64{}, kernel.Sleeping(600*time.Microsecond, 1))
		th.Invoke(kernel.SysRecvfrom, [6]uint64{}, func() int64 { return 64 })
		th.Compute(300 * time.Microsecond)
		th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 64 })
	}
}

// TestStreamMatchesBatchObserver attaches the batch and streaming
// observers to the same kernel and asserts their windows agree exactly:
// every program on a tracepoint sees the same virtual-clock timestamp,
// so the event stream carries precisely the values the aggregate maps
// accumulate.
func TestStreamMatchesBatchObserver(t *testing.T) {
	env, k := rig()
	srv := k.NewProcess("srv")
	cfg := streamConfig(srv.TGID())
	batch := MustAttach(k, cfg)
	stream := MustAttachStream(k, cfg, 1<<20)
	srv.SpawnThread("w", func(th *kernel.Thread) { requestLoop(th, 500) })

	for i := 0; i < 3; i++ {
		env.RunFor(100 * time.Millisecond)
		bw := batch.Sample().Window
		sw := stream.Sample()
		if sw.Window != bw {
			t.Fatalf("window %d:\nstream = %+v\nbatch  = %+v", i, sw.Window, bw)
		}
		if sw.Dropped != 0 {
			t.Fatalf("window %d: dropped %d events", i, sw.Dropped)
		}
		if i > 0 && sw.Events == 0 {
			t.Fatalf("window %d consumed no events", i)
		}
	}
	if err := k.Tracer().LastError(); err != nil {
		t.Fatalf("probe faults: %v", err)
	}
	for name, n := range stream.ProbePrograms() {
		if n == 0 {
			t.Fatalf("program %s has no instructions", name)
		}
	}
	stream.Detach()
	batch.Detach()
	if got := k.Tracer().Attached(); got != 0 {
		t.Fatalf("%d links still attached after Detach", got)
	}
}

// TestStreamDropAccounting deliberately undersizes the ring and never
// polls mid-run: the producer-side counter must account every event that
// did not fit, so consumed + dropped equals the number of matched calls.
func TestStreamDropAccounting(t *testing.T) {
	run := func() (uint64, uint64) {
		env, k := rig()
		srv := k.NewProcess("srv")
		stream := MustAttachStream(k, streamConfig(srv.TGID()), 256)
		srv.SpawnThread("w", func(th *kernel.Thread) {
			for i := 0; i < 200; i++ {
				th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 64 })
				th.Sleep(100 * time.Microsecond)
			}
		})
		env.Run()
		w := stream.Sample()
		return w.Events, w.Dropped
	}
	events, dropped := run()
	if dropped == 0 {
		t.Fatal("a 256-byte ring should overflow under 200 events")
	}
	if events+dropped != 200 {
		t.Fatalf("consumed %d + dropped %d != 200 matched calls", events, dropped)
	}
	// Same seed, same ring: drop count is deterministic.
	events2, dropped2 := run()
	if events2 != events || dropped2 != dropped {
		t.Fatalf("rerun diverged: (%d,%d) vs (%d,%d)", events2, dropped2, events, dropped)
	}
}

// TestPollDoesNotAllocate replays a batch of real ring records through
// an instrumented ring sink: Poll folds each record in place, so a
// non-empty batch costs no allocation.
func TestPollDoesNotAllocate(t *testing.T) {
	env, k := rig()
	srv := k.NewProcess("srv")
	stream := MustAttachStream(k, streamConfig(srv.TGID()), 1<<16)
	stream.Instrument(telemetry.New())
	srv.SpawnThread("w", func(th *kernel.Thread) { requestLoop(th, 20) })
	env.Run()
	batch := stream.ring.Drain()
	if len(batch) == 0 {
		t.Fatal("the request loop streamed no events")
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, rec := range batch {
			stream.ring.Output(rec)
		}
		if n := stream.Poll(); n != len(batch) {
			t.Fatalf("Poll folded %d of %d events", n, len(batch))
		}
	})
	if allocs != 0 {
		t.Fatalf("Poll of %d events allocates %.1f times", len(batch), allocs)
	}
}

// TestStreamTelemetryDropCounter undersizes the ring and checks that the
// telemetry counter surfaces drops incrementally — a mid-run Poll already
// reports a nonzero ringbuf_records_dropped_total, long before any window
// is sampled — and that the final totals are deterministic and agree with
// the producer-side ring accounting.
func TestStreamTelemetryDropCounter(t *testing.T) {
	run := func() (mid, dropped, droppedBytes, produced, consumed uint64) {
		env, k := rig()
		reg := telemetry.New()
		srv := k.NewProcess("srv")
		stream := MustAttachStream(k, streamConfig(srv.TGID()), 256)
		stream.Instrument(reg)
		srv.SpawnThread("w", func(th *kernel.Thread) {
			for i := 0; i < 200; i++ {
				th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 64 })
				th.Sleep(100 * time.Microsecond)
			}
		})
		env.RunFor(10 * time.Millisecond)
		stream.Poll()
		mid = reg.Counter("ringbuf_records_dropped_total").Value()
		env.Run()
		stream.Poll()
		return mid,
			reg.Counter("ringbuf_records_dropped_total").Value(),
			reg.Counter("ringbuf_bytes_dropped_total").Value(),
			reg.Counter("ringbuf_bytes_produced_total").Value(),
			reg.Counter("ringbuf_bytes_consumed_total").Value()
	}
	mid, dropped, droppedBytes, produced, consumed := run()
	if mid == 0 {
		t.Fatal("mid-run poll should already report drops on a 256-byte ring")
	}
	if dropped < mid {
		t.Fatalf("final drop count %d below mid-run count %d", dropped, mid)
	}
	if dropped == 0 || droppedBytes == 0 {
		t.Fatalf("drops = %d, dropped bytes = %d; both must be nonzero", dropped, droppedBytes)
	}
	if produced == 0 || produced != consumed {
		t.Fatalf("after a full drain, produced %d must equal consumed %d (nonzero)", produced, consumed)
	}
	mid2, dropped2, droppedBytes2, produced2, consumed2 := run()
	if mid2 != mid || dropped2 != dropped || droppedBytes2 != droppedBytes ||
		produced2 != produced || consumed2 != consumed {
		t.Fatalf("rerun diverged: (%d,%d,%d,%d,%d) vs (%d,%d,%d,%d,%d)",
			mid2, dropped2, droppedBytes2, produced2, consumed2,
			mid, dropped, droppedBytes, produced, consumed)
	}
}

// TestObserverVerifierTelemetry checks that instrumenting an observer
// records the one-time verifier cost of its four programs.
func TestObserverVerifierTelemetry(t *testing.T) {
	_, k := rig()
	reg := telemetry.New()
	obs := MustAttach(k, streamConfig(1))
	defer obs.Detach()
	obs.Instrument(reg)
	if got := reg.Counter("verifier_programs_total").Value(); got != 4 {
		t.Fatalf("verifier_programs_total = %d, want 4", got)
	}
	if got := reg.Counter("verifier_states_total").Value(); got == 0 {
		t.Fatal("verifier_states_total should be nonzero for verified programs")
	}
}

func TestAttachStreamValidation(t *testing.T) {
	_, k := rig()
	if _, err := AttachStream(k, Config{TGID: 1}, 0); err == nil {
		t.Fatal("empty config should fail")
	}
	overlap := Config{
		TGID:         1,
		SendSyscalls: []int{kernel.SysWrite},
		RecvSyscalls: []int{kernel.SysWrite},
		PollSyscalls: []int{kernel.SysEpollWait},
	}
	if _, err := AttachStream(k, overlap, 0); err == nil {
		t.Fatal("overlapping syscall families should fail")
	}
}

func TestAttachStreamDefaultRing(t *testing.T) {
	_, k := rig()
	stream := MustAttachStream(k, streamConfig(1), 0)
	defer stream.Detach()
	if got := stream.ring.Query(ebpf.RingbufRingSize); got != DefaultStreamBytes {
		t.Fatalf("default ring capacity = %d, want %d", got, DefaultStreamBytes)
	}
	if stream.Dropped() != 0 {
		t.Fatal("fresh observer reports drops")
	}
}

// TestMapSinkHasNoRing: on a map sink the ring-only methods are inert
// and a sample carries no stream bookkeeping.
func TestMapSinkHasNoRing(t *testing.T) {
	_, k := rig()
	obs := MustAttach(k, streamConfig(1))
	defer obs.Detach()
	if obs.Poll() != 0 || obs.Dropped() != 0 || obs.ring != nil {
		t.Fatal("map sink reports ring activity")
	}
	if w := obs.Sample(); w.Events != 0 || w.Dropped != 0 {
		t.Fatalf("map-sink sample carries stream bookkeeping: %+v", w)
	}
}
