// Quickstart: attach the reqlens observer to a black-box server and read
// request-level metrics out of "kernel space" — no cooperation from the
// application.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	"reqlens/internal/core"
	"reqlens/internal/kernel"
	"reqlens/internal/loadgen"
	"reqlens/internal/machine"
	"reqlens/internal/netsim"
	"reqlens/internal/sim"
	"reqlens/internal/workloads"
)

func main() {
	// One simulated machine (the paper's AMD server), a network, and the
	// memcached-like Data Caching workload from CloudSuite.
	env := sim.NewEnv(42)
	prof := machine.AMD()
	prof.Sockets, prof.CoresPerSock, prof.ThreadsPerCore = 1, workloads.ServerCores, 1
	k := kernel.New(env, prof)
	net := netsim.New(env)

	spec := workloads.DataCaching()
	server := workloads.Launch(k, net, spec, netsim.Config{})

	// The observer is the paper's contribution: three verified eBPF
	// programs on raw_syscalls:sys_enter/sys_exit, filtered to the
	// server's tgid, computing metrics in map space.
	obs := core.MustAttach(k, core.Config{
		TGID:         server.Process().TGID(),
		SendSyscalls: []int{spec.SendNR},
		RecvSyscalls: []int{spec.RecvNR},
		PollSyscalls: []int{spec.PollNR},
	})
	fmt.Println("attached programs (instruction slots):", obs.ProbePrograms())

	// Drive it with an open-loop client at 40% of saturation. The client
	// measures ground truth we can compare against.
	client := loadgen.New(k, server.Listener(), loadgen.Options{
		Rate:      0.4 * spec.FailureRPS,
		Conns:     64,
		ReqSize:   spec.ReqSize,
		PerOpCost: spec.ClientPerOpCost(),
	})

	env.RunFor(time.Second) // warm up
	obs.Sample()            // open a fresh observation window

	fmt.Printf("\n%-8s %12s %12s %14s %14s\n",
		"window", "RPS_obsv", "RPS_real", "poll duration", "send variance")
	for i := 0; i < 5; i++ {
		client.StartMeasurement()
		env.RunFor(500 * time.Millisecond)
		w := obs.Sample()
		real := client.Snapshot().RealRPS
		fmt.Printf("%-8d %12.1f %12.1f %14v %12.0fus2\n",
			i, w.RPSObsv(), real, w.Poll.MeanDuration.Round(time.Microsecond), w.Send.VarianceUS2)
	}
	fmt.Println("\nEq.1 in action: RPS_obsv tracks the client-reported rate without")
	fmt.Println("touching the application. See examples/blackbox-autoscaler next.")
}
