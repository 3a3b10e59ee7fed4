package trace

import (
	"strings"
	"testing"
	"time"

	"reqlens/internal/kernel"
	"reqlens/internal/machine"
	"reqlens/internal/sim"
)

func rig() (*sim.Env, *kernel.Kernel) {
	env := sim.NewEnv(13)
	prof := machine.Profile{
		Name: "t", Sockets: 1, CoresPerSock: 2, ThreadsPerCore: 1,
		TimeSlice: time.Millisecond,
	}
	return env, kernel.New(env, prof)
}

func TestRecorderCapturesAndFilters(t *testing.T) {
	env, k := rig()
	srv := k.NewProcess("srv")
	other := k.NewProcess("other")
	rec := NewRecorder(k, srv.TGID(), 0)
	srv.SpawnThread("w", func(th *kernel.Thread) {
		th.Invoke(kernel.SysRecvfrom, [6]uint64{}, func() int64 { return 10 })
	})
	other.SpawnThread("n", func(th *kernel.Thread) {
		th.Invoke(kernel.SysSendto, [6]uint64{}, func() int64 { return 10 })
	})
	env.Run()
	evs := rec.Events()
	if len(evs) != 2 {
		t.Fatalf("captured %d events, want 2 (other tgid filtered)", len(evs))
	}
	if int(evs[0].PidTgid>>32) != srv.TGID() {
		t.Fatal("wrong tgid captured")
	}
	rec.Reset()
	if len(rec.Events()) != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestRecorderLimit(t *testing.T) {
	env, k := rig()
	srv := k.NewProcess("srv")
	rec := NewRecorder(k, 0, 3)
	srv.SpawnThread("w", func(th *kernel.Thread) {
		for i := 0; i < 10; i++ {
			th.Invoke(kernel.SysRead, [6]uint64{}, func() int64 { return 0 })
		}
	})
	env.Run()
	if len(rec.Events()) != 3 {
		t.Fatalf("limit not enforced: %d", len(rec.Events()))
	}
}

func syntheticEvents() []Event {
	mk := func(at int64, tid int, nr int, enter bool) Event {
		return Event{Time: sim.Time(at), PidTgid: 7<<32 | uint64(tid), NR: nr, Enter: enter}
	}
	return []Event{
		mk(0, 1, kernel.SysSocket, true),
		mk(10, 1, kernel.SysSocket, false),
		mk(20, 1, kernel.SysBind, true),
		mk(30, 1, kernel.SysBind, false),
		mk(100, 1, kernel.SysEpollWait, true),
		mk(400, 1, kernel.SysEpollWait, false),
		mk(410, 1, kernel.SysRecvfrom, true),
		mk(420, 1, kernel.SysRecvfrom, false),
		mk(500, 1, kernel.SysSendto, true),
		mk(510, 1, kernel.SysSendto, false),
		mk(600, 1, kernel.SysSendto, true),
		mk(610, 1, kernel.SysSendto, false),
	}
}

func TestEnterTimesAndDeltas(t *testing.T) {
	evs := syntheticEvents()
	ts := EnterTimes(evs, kernel.SendFamily)
	if len(ts) != 2 || ts[0] != 500 || ts[1] != 600 {
		t.Fatalf("EnterTimes = %v", ts)
	}
}

func TestPairDurations(t *testing.T) {
	evs := syntheticEvents()
	ds := PairDurations(evs, kernel.PollFamily)
	if len(ds) != 1 || ds[0] != 300*time.Nanosecond {
		t.Fatalf("poll durations = %v", ds)
	}
	all := PairDurations(evs, func(int) bool { return true })
	if len(all) != 6 {
		t.Fatalf("paired %d calls, want 6", len(all))
	}
}

func TestPairDurationsPerThread(t *testing.T) {
	// Overlapping calls on two threads must pair within each thread.
	mk := func(at int64, tid int, enter bool) Event {
		return Event{Time: sim.Time(at), PidTgid: 7<<32 | uint64(tid), NR: kernel.SysEpollWait, Enter: enter}
	}
	evs := []Event{
		mk(0, 1, true),
		mk(5, 2, true),
		mk(100, 1, false), // thread 1: 100
		mk(205, 2, false), // thread 2: 200
	}
	ds := PairDurations(evs, kernel.PollFamily)
	if len(ds) != 2 || ds[0] != 100*time.Nanosecond || ds[1] != 200*time.Nanosecond {
		t.Fatalf("durations = %v", ds)
	}
}

func TestCountByName(t *testing.T) {
	counts := CountByName(syntheticEvents())
	if counts["sendto"] != 2 || counts["recvfrom"] != 1 || counts["socket"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestPhaseClassification(t *testing.T) {
	if PhaseOf(kernel.SysSocket) != PhaseSetup {
		t.Fatal("socket should be setup")
	}
	if PhaseOf(kernel.SysRecvfrom) != PhaseRequest {
		t.Fatal("recvfrom should be request")
	}
	if PhaseOf(kernel.SysFutex) != PhaseOther {
		t.Fatal("futex should be other")
	}
	if !RequestOriented(kernel.SysEpollWait) || RequestOriented(kernel.SysBind) {
		t.Fatal("RequestOriented classification")
	}
}

func TestSegment(t *testing.T) {
	segs := Segment(syntheticEvents())
	if len(segs) != 2 {
		t.Fatalf("segments = %+v", segs)
	}
	if segs[0].Phase != PhaseSetup || segs[0].Calls != 2 {
		t.Fatalf("first segment = %+v", segs[0])
	}
	if segs[1].Phase != PhaseRequest || segs[1].Calls != 4 {
		t.Fatalf("second segment = %+v", segs[1])
	}
}

func TestRenderAndString(t *testing.T) {
	out := Render(syntheticEvents(), 3)
	if !strings.Contains(out, "socket") || !strings.Contains(out, "more events") {
		t.Fatalf("render = %q", out)
	}
	full := Render(syntheticEvents(), 0)
	if strings.Count(full, "\n") != 12 {
		t.Fatalf("full render lines = %d", strings.Count(full, "\n"))
	}
	if !strings.Contains(syntheticEvents()[0].String(), "enter socket") {
		t.Fatalf("event string = %q", syntheticEvents()[0].String())
	}
}

func TestFilter(t *testing.T) {
	evs := syntheticEvents()
	sends := Filter(evs, func(e Event) bool { return kernel.SendFamily(e.NR) })
	if len(sends) != 4 {
		t.Fatalf("filtered = %d, want 4 (2 enters + 2 exits)", len(sends))
	}
}
