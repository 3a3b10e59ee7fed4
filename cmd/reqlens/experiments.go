package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"reqlens/internal/faults"
	"reqlens/internal/fleet"
	"reqlens/internal/harness"
	"reqlens/internal/machine"
	"reqlens/internal/netsim"
	"reqlens/internal/telemetry"
	"reqlens/internal/workloads"
)

// experiment is one subcommand. The table below is the only list of
// them: dispatch, usage, resume's replay and the golden test all read it.
type experiment struct {
	name    string
	summary string

	// run executes the experiment under the options the shared flags
	// resolved to and writes the rendered artifact to w.
	run func(rc *runCtx, w io.Writer)

	// offline replaces run for the entries that read a recorded journal
	// instead of simulating: they get the parsed flags but no options,
	// journal or metrics file, and return the exit status.
	offline func(rc *runCtx, w io.Writer) int

	// golden, when set, are the arguments under which the entry's output
	// is pinned byte-for-byte by
	// internal/harness/testdata/golden/<name>.txt.
	golden []string
}

// experiments returns the table, in the order usage prints it. (A
// function, not a variable: resume and all refer back to it.)
func experiments() []experiment {
	return []experiment{
		{name: "table1", summary: "Table I: system specification",
			run: func(_ *runCtx, w io.Writer) { fmt.Fprint(w, machine.TableI()) }},
		{name: "fig1", summary: "syscall stream phases [-workload W]",
			run: func(rc *runCtx, w io.Writer) { fig1(rc, w, rc.specs[min(5, len(rc.specs)-1)]) }},
		{name: "fig2", summary: "RPS correlation + residuals [-workload W]", run: fig2},
		{name: "fig3", summary: "send-delta variance knee [-workload W] [-stream]",
			run: func(rc *runCtx, w io.Writer) { sweeps(rc, w, harness.RenderFig3) }},
		{name: "fig4", summary: "epoll-duration slack signal [-workload W] [-stream]",
			run: func(rc *runCtx, w io.Writer) { sweeps(rc, w, harness.RenderFig4) }},
		{name: "fig5", summary: "Triton-gRPC loss impact", run: fig5},
		{name: "table2", summary: "R^2 under netem configs", run: table2},
		{name: "overhead", summary: "probe cost on tail latency", run: overhead},
		{name: "iouring", summary: "Section V-C blind spot", run: iouring},
		{name: "stream", summary: "batch vs streaming observer agreement",
			run: func(rc *runCtx, w io.Writer) {
				for _, s := range rc.specs {
					streamAgreement(rc, w, s)
					fmt.Fprintln(w)
				}
			}},
		{name: "robustness", summary: "R^2 deltas under kernel fault plans",
			golden: []string{"-quick", "-workload", "silo"},
			run: func(rc *runCtx, w io.Writer) {
				rows := harness.RobustnessMatrix(rc.specs, faults.StandardPlans(), rc.opt)
				fmt.Fprint(w, harness.RenderRobustness(rows))
				fmt.Fprintln(w)
			}},
		{name: "waitstates", summary: "sched-probe wait-state decomposition + fault diagnosis [-workload W]",
			golden: []string{"-quick", "-workload", "silo"},
			run: func(rc *runCtx, w io.Writer) {
				res := harness.WaitStateSweep(rc.specs, rc.opt)
				fmt.Fprint(w, harness.RenderWaitStates(res))
				fmt.Fprintln(w)
				fmt.Fprint(w, harness.RenderWaitFolded(res))
			}},
		{name: "fleet", summary: "multi-node cluster sweep with scrape/merge rollups [-nodes N] [-epochs N]",
			golden: []string{"-quick", "-nodes", "4", "-epochs", "4", "-missrate", "0.5"},
			run:    fleetSweep},
		{name: "cardinality", summary: "sketch error/memory vs key cardinality (1e2..1e6; -quick: 1e2..1e4)",
			golden: []string{"-quick"},
			run: func(rc *runCtx, w io.Writer) {
				cards := harness.DefaultCardinalities()
				if rc.quick {
					cards = []int{100, 1_000, 10_000}
				}
				fmt.Fprint(w, harness.RenderCardinality(harness.CardinalitySweep(cards, rc.opt)))
			}},
		{name: "attribution", summary: "supervised fault-attribution matrix: precision/recall/delay [-trials N]",
			golden: []string{"-quick", "-trials", "2"},
			run: func(rc *runCtx, w io.Writer) {
				fmt.Fprint(w, harness.RenderAttribution(harness.AttributionMatrix(rc.opt, rc.trials)))
			}},
		{name: "autoscale", summary: "closed-loop autoscaler: QoS recovery vs actuation latency",
			golden: []string{"-quick"},
			run: func(rc *runCtx, w io.Writer) {
				res := harness.AutoscaleScenario(harness.DefaultAutoscaleLatencies(), rc.opt)
				fmt.Fprint(w, harness.RenderAutoscale(res))
			}},
		{name: "all", summary: "table1, fig1-fig5, table2, overhead, iouring and stream in one run",
			run: func(rc *runCtx, w io.Writer) {
				fmt.Fprint(w, machine.TableI())
				fmt.Fprintln(w)
				fig1(rc, w, workloads.DataCaching())
				fig2(rc, w)
				sweeps(rc, w, harness.RenderFig3, harness.RenderFig4)
				fig5(rc, w)
				table2(rc, w)
				overhead(rc, w)
				iouring(rc, w)
				fmt.Fprintln(w)
				streamAgreement(rc, w, workloads.DataCaching())
			}},
		{name: "telemetry", summary: "render a recorded run journal: -journal F [-top N]", offline: renderJournal},
		{name: "resume", summary: "re-run a journaled command, skipping its checkpointed points: -journal F", offline: resume},
	}
}

func fig1(rc *runCtx, w io.Writer, spec workloads.Spec) {
	capture := 2 * time.Second
	if rc.quick {
		capture = 300 * time.Millisecond
	}
	fmt.Fprintf(w, "workload: %s\n", spec)
	fmt.Fprint(w, harness.RenderFig1(harness.Fig1(spec, 0.5, capture, rc.opt)))
	fmt.Fprintln(w)
}

func fig2(rc *runCtx, w io.Writer) {
	for _, s := range rc.specs {
		fmt.Fprint(w, harness.RenderFig2(harness.Fig2(s, rc.opt)))
		fmt.Fprintln(w)
	}
}

// sweepOptions widens the load range past saturation for the Fig. 3/4/5
// sweeps.
func sweepOptions(rc *runCtx) harness.ExpOptions {
	opt := rc.opt
	if rc.quick {
		opt.Levels = []float64{0.5, 0.8, 1.0, 1.15}
	} else {
		opt.Levels = []float64{0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.2, 1.3}
	}
	return opt
}

// sweeps runs one saturation sweep per workload and prints each under
// every given renderer, so fig3 and fig4 can share a sweep.
func sweeps(rc *runCtx, w io.Writer, renders ...func(harness.SweepResult) string) {
	opt := sweepOptions(rc)
	for _, s := range rc.specs {
		res := harness.SaturationSweep(s, opt)
		for _, render := range renders {
			fmt.Fprint(w, render(res))
		}
		fmt.Fprintln(w)
	}
}

// netemConfigs are the paper's two Table II network settings.
func netemConfigs() ([]netsim.Config, []string) {
	return []netsim.Config{
		{},
		{Delay: 10 * time.Millisecond, Loss: 0.01},
	}, []string{"0ms / 0% loss", "10ms / 1% loss"}
}

func fig5(rc *runCtx, w io.Writer) {
	cfgs, _ := netemConfigs()
	fmt.Fprint(w, harness.RenderFig5(harness.Fig5(workloads.TritonGRPC(), cfgs, sweepOptions(rc))))
	fmt.Fprintln(w)
}

func table2(rc *runCtx, w io.Writer) {
	cfgs, names := netemConfigs()
	fmt.Fprint(w, harness.RenderTable2(harness.Table2(rc.specs, cfgs, rc.opt), names))
	fmt.Fprintln(w)
}

func overhead(rc *runCtx, w io.Writer) {
	var rs []harness.OverheadResult
	for _, s := range rc.specs {
		rs = append(rs, harness.Overhead(s, 0.7, rc.opt))
	}
	fmt.Fprint(w, harness.RenderOverhead(rs))
	fmt.Fprintln(w)
}

func iouring(rc *runCtx, w io.Writer) {
	fmt.Fprint(w, harness.RenderIOUring(harness.IOUring(0.6, rc.opt)))
}

func streamAgreement(rc *runCtx, w io.Writer, spec workloads.Spec) {
	fmt.Fprint(w, harness.RenderStreamAgreement(harness.StreamAgreement(spec, rc.opt)))
}

// fleetSweep runs the cluster saturation sweep and prints the level
// table plus the highest surviving level's final-epoch rollup (the
// "what the scraper saw" view, with any stale exclusions called out).
func fleetSweep(rc *runCtx, w io.Writer) {
	res := fleet.Sweep(rc.opt, rc.fleet)
	fmt.Fprint(w, fleet.RenderSweep(res))
	for i := len(res.Points) - 1; i >= 0; i-- {
		p := res.Points[i]
		if p.Gap || len(p.Rollups) == 0 {
			continue
		}
		fmt.Fprintf(w, "final epoch at level %.2f:\n", p.Level)
		fmt.Fprint(w, fleet.RenderRollup(p.Rollups[len(p.Rollups)-1]))
		break
	}
	fmt.Fprintln(w)
}

// readJournal loads the journal an offline entry was pointed at.
func readJournal(rc *runCtx, cmd, usage string) ([]telemetry.Record, int) {
	if rc.journal == "" {
		fmt.Fprintf(rc.stderr, "usage: reqlens %s\n", usage)
		return nil, 2
	}
	f, err := os.Open(rc.journal)
	if err != nil {
		fmt.Fprintf(rc.stderr, "%s: %v\n", cmd, err)
		return nil, 1
	}
	defer f.Close()
	recs, err := telemetry.ReadJournal(f)
	if err != nil {
		fmt.Fprintf(rc.stderr, "%s: %v\n", cmd, err)
		return nil, 1
	}
	return recs, 0
}

// renderJournal prints a recorded run journal's per-phase summary and
// slowest points.
func renderJournal(rc *runCtx, w io.Writer) int {
	recs, status := readJournal(rc, "telemetry", "telemetry -journal <file> [-top N]")
	if status != 0 {
		return status
	}
	fmt.Fprint(w, telemetry.RenderJournal(recs, rc.top))
	return 0
}

// resume re-executes the command recorded in a journal's run header,
// seeding the engine with the journal's completed-point checkpoints so
// only the missing points are recomputed. Because checkpoints replay
// byte-for-byte and retries reuse derived seeds, the resumed run's
// output is identical to an uninterrupted run of the original command.
func resume(rc *runCtx, w io.Writer) int {
	recs, status := readJournal(rc, "resume", "resume -journal <file>")
	if status != 0 {
		return status
	}
	hdr, ok := telemetry.LastRunHeader(recs)
	if !ok {
		fmt.Fprintf(rc.stderr, "resume: %s has no run header (recorded with -journal?)\n", rc.journal)
		return 1
	}
	cps := telemetry.Checkpoints(recs)
	fmt.Fprintf(rc.stderr, "resume: reqlens %s %s (%d checkpointed point(s))\n",
		hdr.Name, strings.Join(hdr.Args, " "), len(cps))
	return dispatch(hdr.Name, hdr.Args, cps, w, rc.stderr)
}
