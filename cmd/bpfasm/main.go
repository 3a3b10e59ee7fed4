// Command bpfasm inspects the probe programs that ship with reqlens:
// it builds them through the assembler, runs them through the verifier,
// and prints the disassembly — a loader's-eye view of the paper's
// Listing 1 and the in-kernel statistics programs. Beside each slot it
// prints the op Load decoded it to ("cold" means the
// slot has no hot half) and marks fused pairs, so "why is this slot
// generic, or unfused" is answerable here.
//
//	bpfasm -prog list
//	bpfasm -prog send-delta
//	bpfasm -prog poll-enter -tgid 4242
//	bpfasm -prog waitstate-switch -tgid 0
package main

import (
	"flag"
	"fmt"
	"os"

	"reqlens/internal/ebpf"
	"reqlens/internal/kernel"
	"reqlens/internal/probes"
)

var pollNRs = []int{kernel.SysEpollWait, kernel.SysSelect}

// programs is the -prog table: what `list` prints and how each entry is
// built for a tgid.
var programs = []struct {
	name, about string
	build       func(tgid int) (*ebpf.Program, error)
}{
	{"send-delta", "Eq.1/Eq.2 inter-send statistics (sys_enter)", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewDeltaProbe("send", tgid, []int{kernel.SysSendto, kernel.SysSendmsg})
		return prog(p, err, (*probes.DeltaProbe).Program)
	}},
	{"recv-delta", "same, for the recv family", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewDeltaProbe("recv", tgid, []int{kernel.SysRecvfrom, kernel.SysRecvmsg, kernel.SysRead})
		return prog(p, err, (*probes.DeltaProbe).Program)
	}},
	{"send-delta-stream", "send-delta emitting one ring record per event", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewDeltaProbeStream("send", tgid, []int{kernel.SysSendto, kernel.SysSendmsg}, ebpf.NewRingBuf("ring", 1<<20))
		return prog(p, err, (*probes.DeltaProbe).Program)
	}},
	{"poll-enter", "Listing 1 entry half: stamp epoll_wait entry", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewPollProbe("poll", tgid, pollNRs)
		return prog(p, err, (*probes.PollProbe).EnterProgram)
	}},
	{"poll-exit", "Listing 1 exit half: duration accumulation", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewPollProbe("poll", tgid, pollNRs)
		return prog(p, err, (*probes.PollProbe).ExitProgram)
	}},
	{"poll-stream-enter", "poll-enter of the ring-record variant", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewPollProbeStream("poll", tgid, pollNRs, ebpf.NewRingBuf("ring", 1<<20))
		return prog(p, err, (*probes.PollProbe).EnterProgram)
	}},
	{"poll-stream-exit", "poll-exit emitting one ring record per event", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewPollProbeStream("poll", tgid, pollNRs, ebpf.NewRingBuf("ring", 1<<20))
		return prog(p, err, (*probes.PollProbe).ExitProgram)
	}},
	{"stream-enter", "raw trace record to ring buffer (sys_enter)", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewStreamProbe("raw", tgid, 1<<20)
		return prog(p, err, (*probes.StreamProbe).EnterProgram)
	}},
	{"stream-exit", "raw trace record to ring buffer (sys_exit)", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewStreamProbe("raw", tgid, 1<<20)
		return prog(p, err, (*probes.StreamProbe).ExitProgram)
	}},
	{"poll-hist", "exit half: log2 duration histogram via atomic adds", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewHistProbe("hist", tgid, pollNRs)
		return prog(p, err, (*probes.HistProbe).ExitProgram)
	}},
	{"waitstate-switch", "sched_switch: close on-CPU and runnable intervals (-tgid 0 tracks every process)", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewWaitStateProbe("ws", probes.WaitStateConfig{TrackTGID: tgid})
		return prog(p, err, (*probes.WaitStateProbe).SwitchProgram)
	}},
	{"waitstate-wakeup", "sched_wakeup: close blocked intervals (-tgid as above)", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewWaitStateProbe("ws", probes.WaitStateConfig{TrackTGID: tgid})
		return prog(p, err, (*probes.WaitStateProbe).WakeupProgram)
	}},
	{"attribution", "per-tgid syscall/send/time sketches and top-K (all processes; -tgid unused)", func(int) (*ebpf.Program, error) {
		p, err := probes.NewAttributionProbe("attr", probes.AttributionConfig{})
		return prog(p, err, (*probes.AttributionProbe).Program)
	}},
}

// prog picks one program out of a freshly built probe.
func prog[P any](p P, err error, pick func(P) *ebpf.Program) (*ebpf.Program, error) {
	if err != nil {
		return nil, err
	}
	return pick(p), nil
}

func main() {
	name := flag.String("prog", "list", "program to show, or list")
	tgid := flag.Int("tgid", 4242, "tgid filter baked into the program")
	flag.Parse()

	if *name == "list" {
		for _, e := range programs {
			fmt.Printf("%-18s %s\n", e.name, e.about)
		}
		return
	}
	for _, e := range programs {
		if e.name != *name {
			continue
		}
		p, err := e.build(*tgid)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("; %s — %d instruction slots, verified OK (ctx %d bytes), %d generic ops\n",
			e.name, p.Len(), p.CtxSize(), p.GenericOps())
		fmt.Print(p.Disassemble())
		return
	}
	fmt.Fprintf(os.Stderr, "unknown program %q\n", *name)
	os.Exit(2)
}
