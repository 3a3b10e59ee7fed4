package harness

import (
	"fmt"
	"time"

	"reqlens/internal/faults"
	"reqlens/internal/netsim"
	"reqlens/internal/telemetry"
	"reqlens/internal/workloads"
)

// Cell is one point of an experiment grid, carrying its coordinates as
// data so neither the engine nor the driver decodes a batch index.
type Cell struct {
	// Label names the point in progress reports, journal spans and gap
	// footnotes and, under the grid's scope, keys its checkpoint. It
	// must be unique within one grid.
	Label string

	Spec  workloads.Spec // workload the cell's rig serves
	Level float64        // offered load as a fraction of Spec.FailureRPS
	Seed  int64          // seed of the cell's simulation
	Netem netsim.Config  // client-server link; a Plan carrying a netem config replaces it
	Plan  faults.Plan    // armed once warm-up is over; the zero Plan arms nothing
	Warm  time.Duration  // simulated warm-up before the plan is armed

	// Row and Col are the driver's own coordinates — indices into its
	// spec, config, plan, scenario or trial tables — by which it finds
	// the cell's slot again. The engine never reads them.
	Row, Col int
}

// Rate is the cell's offered load in requests per second.
func (c Cell) Rate() float64 { return c.Level * c.Spec.FailureRPS }

// LevelCells expands base into one cell per load level of o (defaults
// resolved): the label gains " level=X.XX", Warm is o.Warmup, and level
// li is seeded o.Seed + li*stride — the index within this block, so two
// blocks of one grid reuse the same seeds level for level.
func (o ExpOptions) LevelCells(base Cell, stride int64) []Cell {
	o = o.withDefaults()
	cells := make([]Cell, len(o.Levels))
	for li, l := range o.Levels {
		c := base
		c.Label = fmt.Sprintf("%s level=%.2f", base.Label, l)
		c.Level = l
		c.Seed = o.Seed + int64(li)*stride
		c.Warm = o.Warmup
		cells[li] = c
	}
	return cells
}

// overWarm switches every overloaded cell (level >= 0.95) from Warmup
// to the OverWarm warm-up; it modifies cells and returns it. Grids that
// must not over-warm (the Fig. 2 protocol) do not call it.
func (o ExpOptions) overWarm(cells []Cell) []Cell {
	o = o.withDefaults()
	for i := range cells {
		if cells[i].Level >= 0.95 {
			cells[i].Warm = o.OverWarm // let overload queues accumulate
		}
	}
	return cells
}

// experiment opens the experiment-level journal span and returns the
// function that closes it with the run registry's cumulative snapshot.
func (o ExpOptions) experiment(name string) func() {
	sp := o.Journal.Begin(telemetry.KindExperiment, name)
	return func() { sp.End(o.Telemetry.Snapshot()) }
}

// RunCells runs one experiment grid on the engine and returns run's
// results in cell order. It resolves opt's defaults, opens the
// experiment span named scope — which also namespaces the grid's
// checkpoints — and runs every cell as a point with its own journal span
// and private telemetry registry (PointCtx.Telemetry). A cell that fails
// every supervision attempt gets gap(cell) in its slot, so a hole keeps
// its coordinates instead of reading as a zero measurement; a nil gap
// leaves the zero T. Two cells with one label would shadow each other's
// checkpoints on resume, so a duplicate panics.
func RunCells[T any](opt ExpOptions, scope string, cells []Cell,
	run func(PointCtx, Cell) T, gap func(Cell) T) ([]T, RunStats) {
	opt = opt.withDefaults()
	defer opt.experiment(scope)()
	labels := make([]string, len(cells))
	seen := make(map[string]bool, len(cells))
	for i, c := range cells {
		if seen[c.Label] {
			panic(fmt.Sprintf("harness: duplicate cell label %q in grid %q", c.Label, scope))
		}
		seen[c.Label] = true
		labels[i] = c.Label
	}
	out, st := runPoints(opt, scope, labels, func(pc PointCtx, i int) T {
		return point(opt, pc, cells[i].Label, func(pc PointCtx) T { return run(pc, cells[i]) })
	})
	if gap != nil {
		for _, g := range st.Gaps {
			if g.Index >= 0 && g.Index < len(out) {
				out[g.Index] = gap(cells[g.Index])
			}
		}
	}
	return out, st
}

// point runs body as one experiment point: a journal span named label, a
// private registry when the run is instrumented, and every rig the body
// builds through pc closed on the way out — also when a deadline kill
// unwinds out of the event loop, so the rig's goroutines are drained
// rather than leaked. The registry folds into the run-level one after
// the rigs close; addition commutes, so run totals do not depend on the
// order parallel points finish in.
func point[T any](opt ExpOptions, pc PointCtx, label string, body func(PointCtx) T) T {
	pc.opt = opt
	if opt.Telemetry != nil {
		pc.Telemetry = telemetry.New()
	}
	sp := opt.Journal.Begin(telemetry.KindPoint, label)
	var rigs []*Rig
	pc.rigs = &rigs
	defer func() {
		for _, r := range rigs {
			r.Close()
		}
		opt.Telemetry.Merge(pc.Telemetry)
		sp.End(pc.Telemetry.Snapshot())
	}()
	return body(pc)
}

// build is the one place an experiment constructs a Rig: the cell
// supplies seed, load, link and workload, the grid's options the
// hardware profile and client ablations, the point its registry and
// budget clock; ro adds only which observers to attach. The point closes
// the rig when it returns.
func (pc PointCtx) build(c Cell, ro RigOptions) *Rig {
	ro.Seed, ro.Rate, ro.Netem = c.Seed, c.Rate(), c.Netem
	if c.Plan.HasNetem() {
		ro.Netem = c.Plan.Netem // link shaping is whole-run, not a windowed event
	}
	ro.Profile = pc.opt.Profile
	ro.Poisson, ro.SeparateClient = pc.opt.Poisson, pc.opt.SeparateClient
	ro.Telemetry, ro.Clock = pc.Telemetry, pc.Clock
	r := NewRig(c.Spec, ro)
	*pc.rigs = append(*pc.rigs, r)
	return r
}

// start warms the rig up for c.Warm and then arms c.Plan, so fault
// windows land inside the measurement.
func (r *Rig) start(c Cell) {
	r.Warmup(c.Warm)
	if !c.Plan.Empty() {
		r.Arm(c.Plan)
	}
}

// rig is build followed by start. A body that must touch the rig before
// traffic settles calls the two itself.
func (pc PointCtx) rig(c Cell, ro RigOptions) *Rig {
	r := pc.build(c, ro)
	r.start(c)
	return r
}
