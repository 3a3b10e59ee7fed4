package ebpf

import (
	"fmt"
	"sync/atomic"
)

// Backend selects how a loaded Program executes its verified
// instruction stream. Both backends implement identical semantics —
// the differential suite cross-checks them instruction-for-instruction
// against an independent reference evaluator — they differ only in
// dispatch cost and allocation behavior:
//
//   - BackendInterpreter decodes each instruction slot on every
//     execution (a switch over the opcode class per step) and
//     allocates its run state per run. It is the debugging baseline
//     and the anchor for BENCH_interpreter.json.
//   - BackendCompiled decodes the instruction stream once, at Load
//     time, into an array of self-contained op records — specialised
//     opcode, resolved jump target, pre-looked-up map handle — and runs
//     them from one switch loop; run state (stack, register file, spill
//     slots, map-value regions) comes from a pooled arena, so
//     steady-state execution performs zero heap allocations. It is the
//     default and the subject of BENCH_jit.json.
type Backend uint8

const (
	// BackendAuto resolves to the package default (DefaultBackend) at
	// Load time. It is the zero value, so a ProgramSpec that does not
	// name a backend gets the default.
	BackendAuto Backend = iota
	// BackendInterpreter selects the decode-per-step interpreter.
	BackendInterpreter
	// BackendCompiled selects the pre-decoded switch-loop backend.
	BackendCompiled
)

// String returns the backend's flag-value spelling.
func (b Backend) String() string {
	switch b {
	case BackendAuto:
		return "auto"
	case BackendInterpreter:
		return "interpreter"
	case BackendCompiled:
		return "compiled"
	}
	return fmt.Sprintf("backend(%d)", uint8(b))
}

// ParseBackend parses a -backend flag value ("auto", "interpreter",
// "compiled").
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "auto", "":
		return BackendAuto, nil
	case "interpreter":
		return BackendInterpreter, nil
	case "compiled":
		return BackendCompiled, nil
	}
	return BackendAuto, fmt.Errorf("ebpf: unknown backend %q (want auto, interpreter, or compiled)", s)
}

// defaultBackend is what BackendAuto resolves to. Atomic because
// program loads can happen concurrently on the parallel experiment
// engine's workers while a driver (cmd/reqlens -backend) configures it.
var defaultBackend atomic.Uint32

func init() { defaultBackend.Store(uint32(BackendCompiled)) }

// DefaultBackend returns the backend BackendAuto resolves to
// (BackendCompiled unless overridden by SetDefaultBackend).
func DefaultBackend() Backend { return Backend(defaultBackend.Load()) }

// SetDefaultBackend overrides what BackendAuto resolves to for
// subsequent Loads; already-loaded programs keep their backend. Setting
// BackendAuto restores the built-in default (BackendCompiled). It
// returns the previous default so callers can restore it.
func SetDefaultBackend(b Backend) Backend {
	if b == BackendAuto {
		b = BackendCompiled
	}
	return Backend(defaultBackend.Swap(uint32(b)))
}
