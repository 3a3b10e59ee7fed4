package harness

import (
	"time"

	"reqlens/internal/control"
	"reqlens/internal/core"
	"reqlens/internal/faults"
	"reqlens/internal/kernel"
	"reqlens/internal/loadgen"
	"reqlens/internal/machine"
	"reqlens/internal/netsim"
	"reqlens/internal/probes"
	"reqlens/internal/sim"
	"reqlens/internal/telemetry"
	"reqlens/internal/workloads"
)

// RigOptions configures one experiment instance.
type RigOptions struct {
	Seed    int64
	Profile machine.Profile // server hardware; zero value = AMD
	Netem   netsim.Config   // link shaping (Section V)
	Rate    float64         // offered RPS
	Probes  bool            // attach the eBPF probes

	// Stream additionally attaches the streaming observer (ring-buffer
	// event pipeline) alongside whatever Probes selects, so batch and
	// streaming views of the same kernel can be compared.
	Stream bool
	// StreamBytes sizes the streaming ring buffer (power of two; 0 =
	// core.DefaultStreamBytes). Deliberately undersizing it exercises
	// the drop path.
	StreamBytes int

	// Attribution attaches the sketch-based attribution pipeline
	// (core.Attribution): an unfiltered sys_enter probe attributing
	// syscall activity to every process through count-min + HashPipe
	// maps instead of exact per-PID state.
	Attribution bool

	// WaitStates attaches the scheduler-state observer
	// (core.WaitProfile): sched_switch/sched_wakeup programs decomposing
	// the server process's time into on-CPU / runnable / blocked — the
	// explanatory counterpart to the poll slack signal.
	WaitStates bool
	// AttributionOracle additionally maintains the exact per-tgid
	// counter map inside the attribution probe, for accuracy audits.
	// Implies nothing unless Attribution is set.
	AttributionOracle bool

	// SeparateClient puts the load generator on its own machine instead
	// of co-locating it with the server (the paper co-locates both
	// containers on one host; separation is an ablation).
	SeparateClient bool
	// Poisson switches the client to exponential interarrivals instead
	// of fixed-rate pacing (ablation).
	Poisson bool

	// Telemetry, when non-nil, instruments the rig's hot paths into the
	// given registry: simulation events, the server kernel's scheduler
	// and tracer, and any attached observers' ring accounting and
	// verifier cost. Telemetry is write-only — nothing in the rig reads
	// an instrument back — so an instrumented rig produces bit-identical
	// results to an uninstrumented one. Nil (the default) leaves every
	// hot-path counter a nil no-op: one nil check per event. The fleet
	// layer reads the registry back *after the fact* through the node's
	// Prometheus export (Node.Reg); that aggregation-plane read cannot
	// reach back into the simulation.
	Telemetry *telemetry.Registry

	// Clock, when non-nil, is the supervisor's execution budget for this
	// rig: the event loop checks it cooperatively every few hundred
	// events and unwinds with sim.Timeout once it expires, so a hung or
	// runaway rig is abandoned instead of stalling its engine worker. An
	// unexpired clock never perturbs the simulation. Nil = no budget.
	Clock *sim.Clock
}

// streamDrainEvery is how much simulated time Advance lets pass between
// ring-buffer drains when a streaming observer is attached. Fixed (and
// independent of the requested advance) so drain points land at
// deterministic simulation instants: drop counts under an undersized
// ring are then reproducible for a given seed.
const streamDrainEvery = 50 * time.Millisecond

// Node is one served instance: a server kernel running one workload
// with the observer(s) under evaluation attached, plus the node's own
// telemetry registry — everything a fleet member exports, and nothing
// client-side. It is the unit internal/fleet replicates: a Rig is one
// Node wired to a co-located load generator; a fleet.Cluster is many
// Nodes, each on a private simulation timeline, with the load plane
// split across them and the aggregation plane scraping Reg.
type Node struct {
	Env     *sim.Env
	ServerK *kernel.Kernel
	Net     *netsim.Network
	Server  workloads.Server

	// Obs is the attached core.Observer with the map sink — the library
	// under evaluation. Nil when RigOptions.Probes is false.
	Obs *core.Observer

	// Stream is the attached core.Observer with the ring sink — the
	// ring-buffer event pipeline. Nil when RigOptions.Stream is false.
	Stream *core.Observer

	// Attr is the attached sketch-based attribution pipeline. Nil when
	// RigOptions.Attribution is false.
	Attr *core.Attribution

	// Wait is the attached scheduler-state observer. Nil when
	// RigOptions.WaitStates is false.
	Wait *core.WaitProfile

	// Faults is the armed fault controller. Nil until Arm is called.
	Faults *faults.Controller

	// Reg is the registry the node's hot paths are instrumented into
	// (RigOptions.Telemetry; nil when uninstrumented). The fleet scraper
	// serializes it with telemetry.AppendProm — this is the node's
	// "metrics endpoint".
	Reg *telemetry.Registry
}

// NewNode builds and starts the server side of an experiment on env: a
// server kernel with the given hardware profile, the workload, the
// observers selected by opt, and hot-path telemetry into opt.Telemetry.
// It does not create a client; NewRig adds the co-located load
// generator, and internal/fleet attaches one load-share client per
// node. opt.Rate, Poisson and SeparateClient are client-side options
// and ignored here.
func NewNode(env *sim.Env, spec workloads.Spec, opt RigOptions) *Node {
	if opt.Profile.Name == "" {
		opt.Profile = machine.AMD()
	}
	serverProf := opt.Profile
	// The workload calibration assumes workloads.ServerCores cores; pin
	// the server allocation while keeping the profile's cost parameters.
	serverProf.Sockets = 1
	serverProf.CoresPerSock = workloads.ServerCores
	serverProf.ThreadsPerCore = 1

	n := &Node{
		Env:     env,
		ServerK: kernel.New(env, serverProf),
		Net:     netsim.New(env),
		Reg:     opt.Telemetry,
	}
	n.Server = workloads.Launch(n.ServerK, n.Net, spec, opt.Netem)

	cfg := core.Config{
		TGID:         n.Server.Process().TGID(),
		SendSyscalls: []int{spec.SendNR},
		RecvSyscalls: []int{spec.RecvNR},
		PollSyscalls: []int{spec.PollNR},
	}
	if opt.Probes {
		n.Obs = core.MustAttach(n.ServerK, cfg)
	}
	if opt.Stream {
		n.Stream = core.MustAttachStream(n.ServerK, cfg, opt.StreamBytes)
	}
	if opt.Attribution {
		n.Attr = core.MustAttachAttribution(n.ServerK, probes.AttributionConfig{
			SendSyscalls: []int{spec.SendNR},
			Oracle:       opt.AttributionOracle,
		})
	}
	if opt.WaitStates {
		n.Wait = core.MustAttachWaitProfile(n.ServerK, cfg.TGID)
	}
	if opt.Telemetry != nil {
		// The server kernel carries the signals under study; a separate
		// client kernel stays uninstrumented so its ideal-machine
		// scheduling does not pollute the scheduler counters.
		env.Instrument(opt.Telemetry)
		n.ServerK.Instrument(opt.Telemetry)
		if n.Obs != nil {
			n.Obs.Instrument(opt.Telemetry)
		}
		if n.Stream != nil {
			n.Stream.Instrument(opt.Telemetry)
		}
		if n.Attr != nil {
			n.Attr.Instrument(opt.Telemetry)
		}
		if n.Wait != nil {
			n.Wait.Instrument(opt.Telemetry)
		}
	}
	return n
}

// Arm schedules plan's faults against the node's kernel (and the batch
// observer, for probe-churn), with offsets relative to the current
// simulated time — call it after warmup so fault windows land inside
// the measurement. The plan's Netem field is not applied here: link
// shaping is a whole-run property that experiments fold into
// RigOptions.Netem when building the node.
func (n *Node) Arm(plan faults.Plan) *faults.Controller {
	tgt := faults.Target{Kernel: n.ServerK, Net: n.Net}
	if n.Obs != nil {
		tgt.Probes = n.Obs
	}
	n.Faults = faults.MustArm(plan, tgt)
	return n.Faults
}

// Advance drives the node's simulation forward by d. With a streaming
// observer attached, it advances in fixed streamDrainEvery chunks and
// drains the ring after each, keeping the consumer ahead of the
// producers at deterministic simulation instants; without one it is
// Env.RunFor.
func (n *Node) Advance(d time.Duration) {
	if n.Stream == nil {
		n.Env.RunFor(d)
		return
	}
	for d > 0 {
		step := streamDrainEvery
		if d < step {
			step = d
		}
		n.Env.RunFor(step)
		// A RingStall fault pauses the consumer: producers keep filling
		// the ring and start dropping once it is full, exactly like a
		// wedged userspace reader.
		if n.Faults == nil || !n.Faults.RingStalled() {
			n.Stream.Poll()
		}
		d -= step
	}
}

// Close terminates all simulation goroutines of the node's environment.
// The node (and anything else sharing the environment) is unusable
// after.
func (n *Node) Close() { n.Env.Shutdown() }

// Rig is one fully wired experiment: a Node (simulation, server kernel,
// network, workload, observers) plus the client side — the ground-truth
// load generator, co-located or on its own machine.
type Rig struct {
	Node
	ClientK *kernel.Kernel
	Client  *loadgen.Client
}

// NewRig builds and starts a rig for spec. Traffic flows as soon as the
// simulation runs; call Warmup then Measure.
func NewRig(spec workloads.Spec, opt RigOptions) *Rig {
	env := sim.NewEnv(opt.Seed)
	env.SetClock(opt.Clock)
	r := &Rig{Node: *NewNode(env, spec, opt)}
	if opt.SeparateClient {
		clientProf := machine.Profile{
			Name: "client", Sockets: 1, CoresPerSock: 8, ThreadsPerCore: 1,
			TimeSlice: time.Millisecond, // ideal client: no syscall/switch cost
		}
		r.ClientK = kernel.New(env, clientProf)
	} else {
		// Paper setup: client and server containers share the machine.
		r.ClientK = r.ServerK
	}

	perOp := spec.ClientPerOpCost()
	if opt.SeparateClient {
		perOp = 0
	}
	r.Client = loadgen.New(r.ClientK, r.Server.Listener(), loadgen.Options{
		Rate:      opt.Rate,
		Conns:     4 * spec.Workers,
		ReqSize:   spec.ReqSize,
		PerOpCost: perOp,
		Poisson:   opt.Poisson,
	})
	return r
}

// Warmup advances the simulation without measuring.
func (r *Rig) Warmup(d time.Duration) {
	r.Advance(d)
	r.rebase()
}

// rebase discards every attached observer's accumulated window, so the
// next Sample covers only what happens from now on.
func (r *Rig) rebase() {
	if r.Obs != nil {
		r.Obs.Sample()
	}
	if r.Stream != nil {
		r.Stream.Sample()
	}
	if r.Wait != nil {
		r.Wait.Sample()
	}
}

// Measurement is one window's paired ground truth and eBPF observations.
type Measurement struct {
	Load loadgen.Results
	Obs  core.Window // the library's view of the same window

	// Stream is the streaming observer's view of the same window (zero
	// when RigOptions.Stream is false). Its embedded Window equals Obs
	// bit-for-bit whenever Stream.Dropped stayed zero.
	Stream core.StreamWindow

	// Wait is the scheduler-state decomposition of the same window (zero
	// when RigOptions.WaitStates is false).
	Wait core.WaitWindow

	RPSObsv    float64 // Eq. 1 estimate from the send probe
	SendVarUS2 float64 // Eq. 2 variance of send deltas
	RecvVarUS2 float64
	PollMeanNS float64 // Fig. 4 slack signal
}

// Evidence is the window's probe read-out as the control stage's input.
// The wait-state shares are zero without RigOptions.WaitStates, and
// ForeignShare is left to the caller: it diffs the attribution
// sketches across windows.
func (m Measurement) Evidence() control.Evidence {
	on, run, blk := m.Wait.Shares()
	return control.Evidence{
		OnCPUShare: on, RunnableShare: run, BlockedShare: blk,
		RPS: m.RPSObsv, SendVarUS2: m.SendVarUS2, PollMeanNS: m.PollMeanNS,
	}
}

// Measure runs one measurement window of duration d and returns the
// paired observations.
func (r *Rig) Measure(d time.Duration) Measurement {
	r.Client.StartMeasurement()
	r.rebase()
	r.Advance(d)
	m := Measurement{Load: r.Client.Snapshot()}
	if r.Obs != nil {
		w := r.Obs.Sample().Window
		m.Obs = w
		m.RPSObsv = w.Send.RatePerSec
		m.SendVarUS2 = w.Send.VarianceUS2
		m.RecvVarUS2 = w.Recv.VarianceUS2
		m.PollMeanNS = float64(w.Poll.MeanDuration)
	}
	if r.Stream != nil {
		m.Stream = r.Stream.Sample()
	}
	if r.Wait != nil {
		m.Wait = r.Wait.Sample()
	}
	return m
}
