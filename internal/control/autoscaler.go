package control

import (
	"time"

	"reqlens/internal/telemetry"
)

// Action is an autoscaler verdict for one observation window.
type Action int

const (
	ActionScaleUp Action = iota + 1
	ActionScaleDown
)

func (a Action) String() string {
	switch a {
	case ActionScaleUp:
		return "scale-up"
	case ActionScaleDown:
		return "scale-down"
	}
	return "none"
}

// Decision is one committed capacity change.
type Decision struct {
	Action      Action
	From, To    int           // capacity in CPUs
	EffectiveAt time.Duration // when the new capacity lands (Observe's at, plus Latency for ups)
	Reason      string        // "alarm", "low-slack", or "high-slack"
}

// AutoscalerConfig tunes the closed-loop capacity controller. Zero
// fields take calibrated defaults.
type AutoscalerConfig struct {
	// Min and Max bound capacity in CPUs. Defaults 1 and 8.
	Min, Max int
	// Cooldown is the minimum spacing between decisions. Default 2s.
	Cooldown time.Duration
	// Latency models scale-up actuation delay (VM boot, pod schedule):
	// an up-decision's capacity lands at At+Latency, and no further
	// decision is taken while one is in flight. Scale-downs are
	// immediate (releasing capacity is cheap). Default 0.
	Latency time.Duration
	// Telemetry, when non-nil, receives control_scale_ups_total and
	// control_scale_downs_total counters.
	Telemetry *telemetry.Registry
}

func (c AutoscalerConfig) withDefaults() AutoscalerConfig {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max <= 0 {
		c.Max = 8
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	return c
}

// The controller's calibrated step sizes and dead band.
const (
	// stepUp and stepDown are CPUs added/removed per decision.
	// Scale-ups are deliberately larger than scale-downs (fast to
	// recover, slow to give back).
	stepUp, stepDown = 2, 1
	// lowSlack and highSlack are the hysteresis band on the poll-slack
	// estimate in [0,1]: below lowSlack the pool grows, above highSlack
	// it shrinks, and in between it holds — the dead band that stops
	// limit cycling.
	lowSlack, highSlack = 0.10, 0.60
)

// Autoscaler is a deterministic hysteresis controller over whole-CPU
// capacity. Feed it one observation per window; it returns at most one
// Decision, which the caller actuates (kernel.SetOnlineCPUs at
// EffectiveAt). Allocation-free per Observe.
type Autoscaler struct {
	cfg AutoscalerConfig
	cur int // target capacity (includes in-flight ups)

	lastAt  time.Duration // last decision time
	decided bool          // a decision has been taken (arms cooldown)
	pending time.Duration // in-flight scale-up lands at this offset
	inFlit  bool

	telUps   *telemetry.Counter
	telDowns *telemetry.Counter
}

// NewAutoscaler builds a controller starting at start CPUs (clamped to
// the configured bounds).
func NewAutoscaler(start int, cfg AutoscalerConfig) *Autoscaler {
	cfg = cfg.withDefaults()
	if start < cfg.Min {
		start = cfg.Min
	}
	if start > cfg.Max {
		start = cfg.Max
	}
	return &Autoscaler{
		cfg:      cfg,
		cur:      start,
		telUps:   cfg.Telemetry.Counter("control_scale_ups_total"),
		telDowns: cfg.Telemetry.Counter("control_scale_downs_total"),
	}
}

// Target returns the current target capacity, counting in-flight ups.
func (a *Autoscaler) Target() int { return a.cur }

// Observe folds one window: alarmed is the detector's verdict and
// slack the poll-based headroom estimate in [0,1]. It returns a
// Decision when the controller commits a change this window.
func (a *Autoscaler) Observe(at time.Duration, alarmed bool, slack float64) (Decision, bool) {
	if a.inFlit {
		if at < a.pending {
			return Decision{}, false // actuation in flight: hold
		}
		a.inFlit = false
	}
	if a.decided && at-a.lastAt < a.cfg.Cooldown {
		return Decision{}, false
	}
	switch {
	case alarmed || slack < lowSlack:
		if a.cur >= a.cfg.Max {
			return Decision{}, false
		}
		to := a.cur + stepUp
		if to > a.cfg.Max {
			to = a.cfg.Max
		}
		reason := "low-slack"
		if alarmed {
			reason = "alarm"
		}
		d := Decision{Action: ActionScaleUp, From: a.cur, To: to,
			EffectiveAt: at + a.cfg.Latency, Reason: reason}
		a.cur = to
		a.lastAt = at
		a.decided = true
		if a.cfg.Latency > 0 {
			a.pending = d.EffectiveAt
			a.inFlit = true
		}
		a.telUps.Inc()
		return d, true
	case !alarmed && slack > highSlack:
		if a.cur <= a.cfg.Min {
			return Decision{}, false
		}
		to := a.cur - stepDown
		if to < a.cfg.Min {
			to = a.cfg.Min
		}
		d := Decision{Action: ActionScaleDown, From: a.cur, To: to,
			EffectiveAt: at, Reason: "high-slack"}
		a.cur = to
		a.lastAt = at
		a.decided = true
		a.telDowns.Inc()
		return d, true
	}
	return Decision{}, false
}
