package control

import "fmt"

// Cause is the attributed root-cause class of a saturation alarm.
type Cause int

const (
	// CauseNone means no degradation was attributed (healthy run, or
	// the evidence matched no class).
	CauseNone Cause = iota
	// CauseOverload: offered load exceeds capacity — observed send rate
	// surges above the healthy baseline while runnable share inflates.
	CauseOverload
	// CauseNetem: network delay/loss — blocked share inflates while
	// runnable share stays near baseline (the server waits on the wire,
	// not on a CPU; DESIGN.md §10).
	CauseNetem
	// CauseNoisyNeighbor: a co-located tenant steals capacity — its
	// syscalls appear as foreign-tgid share in the attribution
	// sketches (DESIGN.md §9) alongside runnable inflation.
	CauseNoisyNeighbor
	// CauseCPUOffline: capacity shrank — runnable share inflates while
	// the observed rate holds or drops (no surge, no foreign traffic).
	CauseCPUOffline
)

func (c Cause) String() string {
	switch c {
	case CauseNone:
		return "none"
	case CauseOverload:
		return "overload"
	case CauseNetem:
		return "netem"
	case CauseNoisyNeighbor:
		return "noisy-neighbor"
	case CauseCPUOffline:
		return "cpu-offline"
	}
	return fmt.Sprintf("cause(%d)", int(c))
}

// Causes lists the fault classes in rendering order.
func Causes() []Cause {
	return []Cause{CauseOverload, CauseNetem, CauseNoisyNeighbor, CauseCPUOffline}
}

// Evidence is one window's fused probe read-out, the detector's and
// the attributor's input. Shares are fractions of the window
// (wait-state probes); ForeignShare is the non-server fraction of
// sketch-attributed syscall counts; RPS is the Eq. 1 estimate.
type Evidence struct {
	OnCPUShare    float64
	RunnableShare float64
	BlockedShare  float64
	ForeignShare  float64
	RPS           float64
	SendVarUS2    float64 // Eq. 2 send-delta variance (µs²)
	PollMeanNS    float64 // Fig. 4 mean epoll_wait duration (ns)
}

// The decision thresholds, all deltas against the learned healthy
// baseline, calibrated once.
const (
	// foreignJump: foreign syscall share must rise by this much to
	// blame a noisy neighbor.
	foreignJump = 0.10
	// blockedJump: blocked share must rise by this much to blame the
	// network.
	blockedJump = 0.08
	// runnableJump separates CPU-contention causes from network ones.
	runnableJump = 0.05
	// rpsSurge: observed rate must exceed baseline by this fraction to
	// blame overload rather than shrunk capacity.
	rpsSurge = 0.20
	// pollStretch: the mean poll duration must exceed baseline by this
	// multiple to blame the network when no share moved. Every
	// CPU-side cause (overload, offline cores, a noisy tenant)
	// *shortens* polls — work piles up and epoll_wait returns ready —
	// so polls stretching with flat shares leaves only the wire.
	pollStretch = 1.2
	// varRatio: the send-delta variance must exceed baseline by this
	// multiple for the variance-knee fallback (network degradation that
	// perturbs timing without any CPU-side signature — jitter, say —
	// moves no share at all, only the variance).
	varRatio = 2
)

// evidenceMean accumulates running means of Evidence fields.
type evidenceMean struct {
	n                                                    float64
	oncpu, runnable, blocked, foreign, rps, varus2, poll float64
}

func (m *evidenceMean) add(e Evidence) {
	m.n++
	m.oncpu += (e.OnCPUShare - m.oncpu) / m.n
	m.runnable += (e.RunnableShare - m.runnable) / m.n
	m.blocked += (e.BlockedShare - m.blocked) / m.n
	m.foreign += (e.ForeignShare - m.foreign) / m.n
	m.rps += (e.RPS - m.rps) / m.n
	m.varus2 += (e.SendVarUS2 - m.varus2) / m.n
	m.poll += (e.PollMeanNS - m.poll) / m.n
}

// Attributor fuses wait-state, sketch, and rate evidence into a cause
// class. Feed the healthy phase through Learn, the post-alarm windows
// through Note, then Classify — classifying window means rather than a
// single window makes the verdict robust to one noisy read-out.
// Allocation-free per call.
type Attributor struct {
	base, post evidenceMean
}

// NewAttributor builds an attributor with the calibrated thresholds.
func NewAttributor() *Attributor { return &Attributor{} }

// Learn folds one healthy-baseline window.
func (a *Attributor) Learn(e Evidence) { a.base.add(e) }

// Note folds one post-alarm window.
func (a *Attributor) Note(e Evidence) { a.post.add(e) }

// Classify returns the cause class of the noted degradation, or
// CauseNone when nothing was noted or no rule matches. Rules fire in
// specificity order:
//
//  1. Foreign syscall share jumped → noisy neighbor. Checked first
//     because a heavy tenant also steals CPU (runnable inflates) and
//     depresses the observed rate, mimicking cpu-offline on the
//     wait-state axis alone; the sketches disambiguate.
//  2. Blocked share jumped without a runnable jump → netem. Network
//     degradation parks the server in socket waits, off the run queue.
//  3. Runnable share jumped with an RPS surge → overload; without one
//     → cpu-offline (demand is unchanged, capacity shrank, so the
//     observed rate cannot rise).
//  4. No share moved but polls stretched past pollStretch times
//     baseline, or the send-delta variance rose past varRatio times
//     baseline → netem. Every CPU-side cause *shortens* polls (work
//     piles up, epoll_wait returns ready) and a tenant would have shown
//     in the sketches, so timing degradation with flat shares leaves
//     only the wire — loss stalls stretch the waits, jitter inflates
//     the variance.
func (a *Attributor) Classify() Cause {
	if a.post.n == 0 {
		return CauseNone
	}
	runnableUp := a.post.runnable-a.base.runnable > runnableJump
	switch {
	case a.post.foreign-a.base.foreign > foreignJump:
		return CauseNoisyNeighbor
	case a.post.blocked-a.base.blocked > blockedJump && !runnableUp:
		return CauseNetem
	case runnableUp && a.post.rps > a.base.rps*(1+rpsSurge):
		return CauseOverload
	case runnableUp:
		return CauseCPUOffline
	case a.post.poll > pollStretch*a.base.poll && a.base.poll > 0:
		return CauseNetem
	case a.post.varus2 > varRatio*a.base.varus2 && a.base.varus2 > 0:
		return CauseNetem
	}
	return CauseNone
}
