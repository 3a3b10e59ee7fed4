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

	// Attribution attaches the sketch-based attribution probe
	// (probes.AttributionProbe): an unfiltered sys_enter program
	// attributing syscall activity to every process through count-min
	// + HashPipe maps instead of exact per-PID state.
	Attribution bool

	// WaitStates attaches the scheduler-state observer
	// (core.WaitProfile): sched_switch/sched_wakeup programs decomposing
	// the server process's time into on-CPU / runnable / blocked — the
	// explanatory counterpart to the poll slack signal.
	WaitStates bool

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
	// Prometheus export (Rig.Reg); that aggregation-plane read cannot
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

// Rig is one fully wired experiment: a server kernel running one
// workload with the observer(s) under evaluation attached, the node's
// own telemetry registry, and the client side — the ground-truth load
// generator, co-located or on its own machine. A fleet.Cluster is many
// Rigs, each on a private simulation timeline, with the aggregation
// plane scraping each Reg.
type Rig struct {
	Env     *sim.Env
	ServerK *kernel.Kernel
	Net     *netsim.Network
	Server  workloads.Server
	ClientK *kernel.Kernel
	Client  *loadgen.Client

	// Obs is the attached core.Observer with the map sink — the library
	// under evaluation. Nil when RigOptions.Probes is false.
	Obs *core.Observer

	// Stream is the attached core.Observer with the ring sink — the
	// ring-buffer event pipeline. Nil when RigOptions.Stream is false.
	Stream *core.Observer

	// Attr is the attached sketch-based attribution probe, counting the
	// workload's send syscall as its send family; its Sketches are the
	// read-out. Nil when RigOptions.Attribution is false.
	Attr *probes.AttributionProbe

	// Wait is the attached scheduler-state observer. Nil when
	// RigOptions.WaitStates is false.
	Wait *core.WaitProfile

	// Faults is the armed fault controller. Nil until Arm is called.
	Faults *faults.Controller

	// Reg is the registry the rig's hot paths are instrumented into
	// (RigOptions.Telemetry; nil when uninstrumented). The fleet scraper
	// serializes it with telemetry.AppendProm — this is the node's
	// "metrics endpoint".
	Reg *telemetry.Registry
}

// NewRig builds and starts a rig for spec: a server kernel with the
// given hardware profile, the workload, the observers selected by opt,
// hot-path telemetry into opt.Telemetry, and the load generator.
// Traffic flows as soon as the simulation runs; call Warmup then
// Measure.
func NewRig(spec workloads.Spec, opt RigOptions) *Rig {
	env := sim.NewEnv(opt.Seed)
	env.SetClock(opt.Clock)
	if opt.Profile.Name == "" {
		opt.Profile = machine.AMD()
	}
	serverProf := opt.Profile
	// The workload calibration assumes workloads.ServerCores cores; pin
	// the server allocation while keeping the profile's cost parameters.
	serverProf.Sockets = 1
	serverProf.CoresPerSock = workloads.ServerCores
	serverProf.ThreadsPerCore = 1

	r := &Rig{
		Env:     env,
		ServerK: kernel.New(env, serverProf),
		Net:     netsim.New(env),
		Reg:     opt.Telemetry,
	}
	r.Server = workloads.Launch(r.ServerK, r.Net, spec, opt.Netem)

	cfg := core.Config{
		TGID:         r.Server.Process().TGID(),
		SendSyscalls: []int{spec.SendNR},
		RecvSyscalls: []int{spec.RecvNR},
		PollSyscalls: []int{spec.PollNR},
	}
	// Every Instrument call is a no-op on a nil opt.Telemetry.
	if opt.Probes {
		r.Obs = core.MustAttach(r.ServerK, cfg)
		r.Obs.Instrument(opt.Telemetry)
	}
	if opt.Stream {
		r.Stream = core.MustAttachStream(r.ServerK, cfg, opt.StreamBytes)
		r.Stream.Instrument(opt.Telemetry)
	}
	if opt.Attribution {
		r.Attr = probes.Must(probes.NewAttributionProbe("attr", []int{spec.SendNR}))
		if err := r.Attr.Attach(r.ServerK.Tracer()); err != nil {
			panic(err)
		}
		r.Attr.Instrument(opt.Telemetry)
	}
	if opt.WaitStates {
		r.Wait = core.MustAttachWaitProfile(r.ServerK, cfg.TGID)
		r.Wait.Instrument(opt.Telemetry)
	}
	// The server kernel carries the signals under study; a separate
	// client kernel stays uninstrumented so its ideal-machine scheduling
	// does not pollute the scheduler counters.
	env.Instrument(opt.Telemetry)
	r.ServerK.Instrument(opt.Telemetry)

	// Paper setup: client and server containers share the machine.
	r.ClientK = r.ServerK
	perOp := spec.ClientPerOpCost()
	if opt.SeparateClient {
		r.ClientK = kernel.New(env, machine.Profile{
			Name: "client", Sockets: 1, CoresPerSock: 8, ThreadsPerCore: 1,
			TimeSlice: time.Millisecond, // ideal client: no syscall/switch cost
		})
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

// Arm schedules plan's faults against the rig's server kernel (and the
// batch observer, for probe-churn), with offsets relative to the
// current simulated time — call it after warmup so fault windows land
// inside the measurement. The plan's Netem field is not applied here:
// link shaping is a whole-run property that experiments fold into
// RigOptions.Netem when building the rig.
func (r *Rig) Arm(plan faults.Plan) *faults.Controller {
	tgt := faults.Target{Kernel: r.ServerK, Net: r.Net}
	if r.Obs != nil {
		tgt.Probes = r.Obs
	}
	r.Faults = faults.MustArm(plan, tgt)
	return r.Faults
}

// Advance drives the rig's simulation forward by d. With a streaming
// observer attached, it advances in fixed streamDrainEvery chunks and
// drains the ring after each, keeping the consumer ahead of the
// producers at deterministic simulation instants; without one it is
// Env.RunFor.
func (r *Rig) Advance(d time.Duration) {
	if r.Stream == nil {
		r.Env.RunFor(d)
		return
	}
	for d > 0 {
		step := min(d, streamDrainEvery)
		r.Env.RunFor(step)
		// A RingStall fault pauses the consumer: producers keep filling
		// the ring and start dropping once it is full, exactly like a
		// wedged userspace reader.
		if r.Faults == nil || !r.Faults.RingStalled() {
			r.Stream.Poll()
		}
		d -= step
	}
}

// Close terminates all simulation goroutines of the rig's environment.
// The rig is unusable after.
func (r *Rig) Close() { r.Env.Shutdown() }

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

	// Obs is the library's view of the same window (Eq. 1 Obs.RPSObsv,
	// Eq. 2 variances, Fig. 4 Obs.Poll.MeanDuration); zero without Probes.
	Obs core.Window

	// Stream is the streaming observer's view of the same window (zero
	// when RigOptions.Stream is false). Its embedded Window equals Obs
	// bit-for-bit whenever Stream.Dropped stayed zero.
	Stream core.StreamWindow

	// Wait is the scheduler-state decomposition of the same window (zero
	// when RigOptions.WaitStates is false).
	Wait core.WaitWindow
}

// Evidence is the window's probe read-out as the control stage's input.
// The wait-state shares are zero without RigOptions.WaitStates, and
// ForeignShare is left to the caller: it diffs the attribution
// sketches across windows.
func (m Measurement) Evidence() control.Evidence {
	on, run, blk := m.Wait.Shares()
	return control.Evidence{
		OnCPUShare: on, RunnableShare: run, BlockedShare: blk,
		RPS: m.Obs.RPSObsv(), SendVarUS2: m.Obs.Send.VarianceUS2,
		PollMeanNS: float64(m.Obs.Poll.MeanDuration),
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
		m.Obs = r.Obs.Sample().Window
	}
	if r.Stream != nil {
		m.Stream = r.Stream.Sample()
	}
	if r.Wait != nil {
		m.Wait = r.Wait.Sample()
	}
	return m
}
