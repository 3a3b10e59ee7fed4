// Package ebpf implements a faithful, self-contained eBPF execution
// environment: the classic 64-bit register ISA with the real
// instruction encoding, an assembler and disassembler, hash/array/
// ring-buffer maps and two sketch maps (count-min and HashPipe), a
// static verifier enforcing the kernel's headline
// constraints (no back-edges, bounded stack, checked pointer
// arithmetic, mandatory null checks on map lookups), and an execution
// engine that charges a deterministic per-instruction cost so probe
// overhead can be measured (the Section VI study).
//
// # Execution engine
//
// Load decodes the verified stream once (compile.go) into one array of
// fixed-size op records — a specialised opcode, resolved jump target,
// immediate or mask, the handle of a map-fd load — with three adjacent
// idioms (lea, call+mov, mov+exit) fused into their leader, and
// Program.Run runs it from a single switch loop. Each case is an op's
// hot half: it tests the operand tags once and works in place; anything
// else goes to one cold tail, which runs the few verified forms no hot
// half takes (pointer arithmetic with a known scalar, pointer compares
// for equality, a pointer spill and its restore) and faults on the rest
// (Program.GenericOps counts slots with no hot half, Program.ColdOps
// the slots that took the tail at run time). Only a program that
// bypassed the verifier faults: there is one execution semantics, the
// verified one. Run state — stack, registers, spill slots, map-value
// regions — is one allocation parked on its Program, so steady-state
// execution performs zero heap allocations (BENCH_jit.json).
//
// The tests hold Program.Run to an independently written reference
// evaluator: return values, RunStats, register files, stack images, and
// map contents all match, over hundreds of seeded random programs and a
// fuzzer (differential_test.go). Unverified programs must fault with a
// RuntimeError at the faulting slot, never panic or hang.
//
// The subset implemented is the subset the paper's probes need (Listing
// 1 and the in-kernel statistics programs), but the encoding and the
// verifier rules follow the Linux uapi so the programs read like real
// BPF: JMP32, atomic adds (BPF_XADD), LRU hashes, and ring buffers are
// supported, and the verifier is fuzzed for soundness.
//
// Key entry points:
//
//   - NewAssembler — build programs from instruction constructors
//     (Mov64Reg, JumpImm, LoadMapFD, ...); Program.Disassemble prints
//     a loaded one (`cmd/bpfasm` shows the probe listings).
//   - Load / MustLoad — verify a ProgramSpec and return a runnable
//     Program; Program.Run executes it against a context and a
//     HelperEnv.
//   - NewHashMap / NewLRUHashMap / NewArrayMap / NewRingBuf — map
//     types; Map is their shared interface. Both hash constructors
//     return a *HashMap, an open-addressed table over 8-byte keys read
//     as little-endian u64s, which grows up to twice max_entries; the
//     LRU one evicts the least recently used entry when full instead
//     of failing. Each value is its own slice, so the pointer a lookup
//     returns stays the key's until the key is deleted. RingBuf follows
//     the kernel's BPF_MAP_TYPE_RINGBUF model: power-of-two byte
//     capacity, monotonic producer/consumer positions, 8-byte length
//     header plus 8-byte alignment per record, and never-overwrite drop
//     semantics with a producer-side drop counter.
//   - NewCMS / NewHashPipe — the sketch maps for high-cardinality
//     keys, reached only through helpers 200–202 (cms_update,
//     cms_estimate, hashpipe_insert; sketch.go); Merge folds two of the
//     same geometry.
//   - HelperEnv — the program's view of the running thread:
//     ktime_get_ns, get_current_pid_tgid and get_smp_processor_id. The
//     map, ring-buffer and sketch helpers need no environment: the VM
//     runs them against the map the handle names.
//
// internal/probes assembles the paper's actual programs against this
// package; internal/kernel dispatches them on syscall tracepoints and
// charges their cost to the traced thread.
package ebpf
