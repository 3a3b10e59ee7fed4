package probes

import (
	"testing"
	"time"

	"reqlens/internal/ebpf"
	"reqlens/internal/kernel"
)

// decodeAll consumes every pending record of ring, decoding each.
func decodeAll(t *testing.T, ring *ebpf.RingBuf) []MetricEvent {
	t.Helper()
	var evs []MetricEvent
	ring.Consume(func(rec []byte) {
		ev, err := DecodeEvent(rec)
		if err != nil {
			t.Fatal(err)
		}
		evs = append(evs, ev)
	})
	return evs
}

// foldDelta replays EventDelta records into the cumulative aggregate
// state, using the same integer arithmetic the in-kernel program uses.
func foldDelta(evs []MetricEvent) DeltaSnapshot {
	var s DeltaSnapshot
	for _, ev := range evs {
		if ev.Kind != EventDelta {
			continue
		}
		s.Calls++
		s.LastTS = uint64(ev.Time)
		if ev.First {
			s.FirstTS = uint64(ev.Time)
			continue
		}
		s.Count++
		s.SumNS += ev.Value
		us := ev.Value / 1000
		s.SumSqUS += us * us
	}
	return s
}

func TestDeltaProbeStreamMatchesAggregates(t *testing.T) {
	env, k := rig(2)
	srv := k.NewProcess("srv")
	ring := ebpf.NewRingBuf("ring", 1<<20)
	probe, err := NewDeltaProbe("send", srv.TGID(), []int{kernel.SysSendto}, ring)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	srv.SpawnThread("w", func(th *kernel.Thread) {
		// Bursty cadence so SumSqUS exercises the integer quantization.
		for i := 0; i < 200; i++ {
			th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 64 })
			if i%2 == 0 {
				th.Sleep(137 * time.Microsecond)
			} else {
				th.Sleep(1900 * time.Microsecond)
			}
		}
	})
	env.Run()
	if k.Tracer().RunErrors() != 0 {
		t.Fatalf("probe faults: %v", k.Tracer().LastError())
	}
	evs := decodeAll(t, ring)
	if len(evs) != 200 {
		t.Fatalf("events = %d, want one per matched call", len(evs))
	}
	if !evs[0].First || evs[0].Value != 0 {
		t.Fatalf("first event = %+v, want First with no value", evs[0])
	}
	for _, ev := range evs {
		if ev.NR != kernel.SysSendto || ev.Kind != EventDelta {
			t.Fatalf("event = %+v", ev)
		}
		if tgid := int(ev.PidTgid >> 32); tgid != srv.TGID() {
			t.Fatalf("TGID = %d, want %d", tgid, srv.TGID())
		}
	}
	// The event stream must reconstruct the aggregate map bit-for-bit.
	if got, want := foldDelta(evs), probe.Snapshot(); got != want {
		t.Fatalf("folded events = %+v\naggregate map = %+v", got, want)
	}
	if ring.Dropped() != 0 {
		t.Fatalf("dropped %d events", ring.Dropped())
	}
}

func TestPollProbeStreamMatchesAggregates(t *testing.T) {
	env, k := rig(2)
	srv := k.NewProcess("srv")
	ring := ebpf.NewRingBuf("ring", 1<<20)
	probe, err := NewPollProbe("poll", srv.TGID(), []int{kernel.SysEpollWait}, ring)
	if err != nil {
		t.Fatal(err)
	}
	if err := probe.Attach(k.Tracer()); err != nil {
		t.Fatal(err)
	}
	srv.SpawnThread("w", func(th *kernel.Thread) {
		for i := 0; i < 50; i++ {
			th.Syscall(kernel.SysEpollWait, [6]uint64{}, kernel.Sleeping(time.Duration(200+10*i)*time.Microsecond, 1))
			th.Sleep(100 * time.Microsecond)
		}
	})
	env.Run()
	if k.Tracer().RunErrors() != 0 {
		t.Fatalf("probe faults: %v", k.Tracer().LastError())
	}
	evs := decodeAll(t, ring)
	if len(evs) != 50 {
		t.Fatalf("events = %d, want one per completed poll", len(evs))
	}
	var got PollSnapshot
	for _, ev := range evs {
		if ev.Kind != EventPoll || ev.NR != kernel.SysEpollWait || ev.First {
			t.Fatalf("event = %+v", ev)
		}
		got.Count++
		got.SumNS += ev.Value
	}
	if want := probe.Snapshot(); got != want {
		t.Fatalf("folded events = %+v, aggregate map = %+v", got, want)
	}
}

func TestDecodeEventRejectsBadSize(t *testing.T) {
	if _, err := DecodeEvent(make([]byte, EventSize-1)); err == nil {
		t.Fatal("short record should fail")
	}
	if _, err := DecodeEvent(make([]byte, EventSize+8)); err == nil {
		t.Fatal("long record should fail")
	}
	if _, err := DecodeEvent(make([]byte, EventSize)); err != nil {
		t.Fatalf("full-size record: %v", err)
	}
}
