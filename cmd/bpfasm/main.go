// Command bpfasm inspects the probe programs that ship with reqlens:
// it builds them through the assembler, runs them through the verifier,
// and prints the disassembly — a loader's-eye view of the paper's
// Listing 1 and the in-kernel statistics programs.
//
//	bpfasm -prog list
//	bpfasm -prog send-delta
//	bpfasm -prog poll-enter -tgid 4242
package main

import (
	"flag"
	"fmt"
	"os"

	"reqlens/internal/ebpf"
	"reqlens/internal/kernel"
	"reqlens/internal/probes"
)

func main() {
	prog := flag.String("prog", "list", "program: send-delta | recv-delta | poll-enter | poll-exit | poll-hist | stream-enter | stream-exit")
	tgid := flag.Int("tgid", 4242, "tgid filter baked into the program")
	flag.Parse()

	show := func(name string, p *ebpf.Program) {
		fmt.Printf("; %s — %d instruction slots, verified OK (ctx %d bytes), %d generic ops\n",
			name, p.Len(), p.CtxSize(), p.GenericOps())
		fmt.Print(p.Disassemble())
	}

	switch *prog {
	case "list":
		fmt.Println("send-delta   Eq.1/Eq.2 inter-send statistics (sys_enter)")
		fmt.Println("recv-delta   same, for the recv family")
		fmt.Println("poll-enter   Listing 1 entry half: stamp epoll_wait entry")
		fmt.Println("poll-exit    Listing 1 exit half: duration accumulation")
		fmt.Println("stream-enter raw trace record to ring buffer (sys_enter)")
		fmt.Println("stream-exit  raw trace record to ring buffer (sys_exit)")
		fmt.Println("poll-hist    log2 duration histogram via atomic adds")
	case "send-delta":
		p := probes.MustNewDeltaProbe("send", *tgid, []int{kernel.SysSendto, kernel.SysSendmsg})
		show("send-delta", p.Program())
	case "recv-delta":
		p := probes.MustNewDeltaProbe("recv", *tgid, []int{kernel.SysRecvfrom, kernel.SysRecvmsg, kernel.SysRead})
		show("recv-delta", p.Program())
	case "poll-enter":
		p := probes.MustNewPollProbe("poll", *tgid, []int{kernel.SysEpollWait, kernel.SysSelect})
		show("poll-enter", p.EnterProgram())
	case "poll-exit":
		p := probes.MustNewPollProbe("poll", *tgid, []int{kernel.SysEpollWait, kernel.SysSelect})
		show("poll-exit", p.ExitProgram())
	case "stream-enter":
		p := probes.MustNewStreamProbe("raw", *tgid, 1<<20)
		show("stream-enter", p.EnterProgram())
	case "stream-exit":
		p := probes.MustNewStreamProbe("raw", *tgid, 1<<20)
		show("stream-exit", p.ExitProgram())
	case "poll-hist":
		p := probes.MustNewHistProbe("hist", *tgid, []int{kernel.SysEpollWait, kernel.SysSelect})
		show("poll-hist (exit half: log2 bucketing + atomic add)", p.ExitProgram())
	default:
		fmt.Fprintf(os.Stderr, "unknown program %q\n", *prog)
		os.Exit(2)
	}
}
