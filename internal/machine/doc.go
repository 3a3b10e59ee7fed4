// Package machine defines the hardware profiles of the paper's Table I.
//
// A Profile parameterizes the simulated kernel — socket/core/SMT
// topology, timeslice, context-switch and syscall-entry costs — so
// experiments can demonstrate the paper's claim that syscall-derived
// observability generalizes across hardware (TestIntelProfileAlsoWorks
// re-runs Fig. 2 on the second profile).
//
// Key entry points:
//
//   - AMD() — the AMD EPYC 7302 server the paper evaluates on (2
//     sockets x 16 cores x 2 threads, 1.5-3.0 GHz).
//   - Intel() — the Intel Xeon E5-2620 alternative (2 x 8 x 1).
//   - TableI() — renders the paper's Table I from the profiles
//     (`reqlens table1`).
//
// Experiment rigs pin the server workload to an 8-core allocation of
// the chosen profile (workloads.ServerCores), matching the paper's
// containerized placement.
package machine
