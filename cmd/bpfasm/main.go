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
	"io"
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
		p, err := probes.NewDeltaProbe("send", tgid, []int{kernel.SysSendto, kernel.SysSendmsg}, nil)
		return prog(p, err, 0)
	}},
	{"recv-delta", "same, for the recv family", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewDeltaProbe("recv", tgid, []int{kernel.SysRecvfrom, kernel.SysRecvmsg, kernel.SysRead}, nil)
		return prog(p, err, 0)
	}},
	{"send-delta-stream", "send-delta emitting one ring record per event", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewDeltaProbe("send", tgid, []int{kernel.SysSendto, kernel.SysSendmsg}, ebpf.NewRingBuf("ring", 1<<20))
		return prog(p, err, 0)
	}},
	{"poll-enter", "Listing 1 entry half: stamp epoll_wait entry", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewPollProbe("poll", tgid, pollNRs, nil)
		return prog(p, err, 0)
	}},
	{"poll-exit", "Listing 1 exit half: duration accumulation", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewPollProbe("poll", tgid, pollNRs, nil)
		return prog(p, err, 1)
	}},
	{"poll-stream-enter", "poll-enter of the ring-record variant", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewPollProbe("poll", tgid, pollNRs, ebpf.NewRingBuf("ring", 1<<20))
		return prog(p, err, 0)
	}},
	{"poll-stream-exit", "poll-exit emitting one ring record per event", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewPollProbe("poll", tgid, pollNRs, ebpf.NewRingBuf("ring", 1<<20))
		return prog(p, err, 1)
	}},
	{"stream-enter", "raw trace record to ring buffer (sys_enter)", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewStreamProbe("raw", tgid, 1<<20)
		return prog(p, err, 0)
	}},
	{"stream-exit", "raw trace record to ring buffer (sys_exit)", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewStreamProbe("raw", tgid, 1<<20)
		return prog(p, err, 1)
	}},
	{"poll-hist", "exit half: log2 duration histogram via atomic adds", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewHistProbe("hist", tgid, pollNRs)
		return prog(p, err, 1)
	}},
	{"waitstate-switch", "sched_switch: close on-CPU and runnable intervals (-tgid 0 tracks every process)", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewWaitStateProbe("ws", tgid)
		return prog(p, err, 0)
	}},
	{"waitstate-wakeup", "sched_wakeup: close blocked intervals (-tgid as above)", func(tgid int) (*ebpf.Program, error) {
		p, err := probes.NewWaitStateProbe("ws", tgid)
		return prog(p, err, 1)
	}},
	{"attribution", "per-tgid syscall/send/time sketches and top-K (all processes; -tgid unused)", func(int) (*ebpf.Program, error) {
		p, err := probes.NewAttributionProbe("attr", nil)
		return prog(p, err, 0)
	}},
}

// prog picks program i, in attach order, out of a freshly built probe.
func prog(p interface{ Programs() []*ebpf.Program }, err error, i int) (*ebpf.Program, error) {
	if err != nil {
		return nil, err
	}
	return p.Programs()[i], nil
}

func main() {
	name := flag.String("prog", "list", "program to show, or list")
	tgid := flag.Int("tgid", 4242, "tgid filter baked into the program")
	flag.Parse()
	os.Exit(show(os.Stdout, os.Stderr, *name, *tgid))
}

// show prints the -prog table (name "list") or one entry built for tgid,
// and returns the exit status.
func show(stdout, stderr io.Writer, name string, tgid int) int {
	if name == "list" {
		for _, e := range programs {
			fmt.Fprintf(stdout, "%-18s %s\n", e.name, e.about)
		}
		return 0
	}
	for _, e := range programs {
		if e.name != name {
			continue
		}
		p, err := e.build(tgid)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "; %s — %d instruction slots, verified OK (ctx %d bytes), %d generic ops\n",
			e.name, p.Len(), p.CtxSize(), p.GenericOps())
		fmt.Fprint(stdout, p.Disassemble())
		return 0
	}
	fmt.Fprintf(stderr, "unknown program %q\n", name)
	return 2
}
