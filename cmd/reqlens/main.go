// Command reqlens regenerates the paper's tables and figures from the
// simulated substrate. Every subcommand is one entry of the table in
// experiments.go; `reqlens` with no arguments prints it with a one-line
// summary each:
//
//	table1 fig1 fig2 fig3 fig4 fig5 table2 overhead iouring stream
//	robustness waitstates fleet cardinality attribution autoscale all
//	telemetry resume
//
// `all` runs table1, fig1 (data-caching), fig2, fig3+fig4 from one
// sweep, fig5, table2, overhead, iouring and stream (data-caching); it
// omits robustness, waitstates, fleet, cardinality, attribution and
// autoscale.
//
// Every entry parses the same flag set (`reqlens <command> -h` lists it):
// scale and selection (-quick, -workload, -seed, -intel), execution
// (-parallel, -progress), the streaming observer (-stream,
// -streambytes), supervision (-deadline, -retries, -chaos; any of them
// turns a failing point into a marked gap instead of a crash),
// self-telemetry (-metrics, -journal) and the few flags single entries
// read (fleet's -nodes/-epochs/-scrape-interval/-skew/-missrate,
// attribution's -trials, telemetry's -top). Results are
// bit-identical at any -parallel, with or without supervision, metrics
// or a journal. A journal holds a fsynced checkpoint per completed
// point, so `reqlens resume -journal F` after a kill replays them,
// recomputes the rest, appends to F, and prints the bytes an
// uninterrupted run would have.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"reqlens/internal/fleet"
	"reqlens/internal/harness"
	"reqlens/internal/machine"
	"reqlens/internal/telemetry"
	"reqlens/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		os.Exit(usage(os.Stderr))
	}
	os.Exit(dispatch(os.Args[1], os.Args[2:], nil, os.Stdout, os.Stderr))
}

// usage prints the experiment table and returns the exit status of a
// command line that names no entry of it.
func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: reqlens <command> [flags]")
	for _, e := range experiments() {
		fmt.Fprintf(stderr, "  %-12s %s\n", e.name, e.summary)
	}
	return 2
}

// runCtx is what the shared flag set resolves to: the experiment options
// plus the values only some entries read.
type runCtx struct {
	opt   harness.ExpOptions
	quick bool
	specs []workloads.Spec // -workload, or all nine

	fleet  fleet.SweepOptions // fleet
	trials int                // attribution

	journal string // telemetry, resume: the journal to read
	top     int    // telemetry
	stderr  io.Writer
}

// dispatch runs the table entry called name with args and returns the
// process exit status. resume, when non-nil, maps checkpoint keys to
// their records from a prior journal; the engine replays matching
// points instead of recomputing them.
func dispatch(name string, args []string, resume map[string]telemetry.Record, stdout, stderr io.Writer) int {
	var exp *experiment
	for _, e := range experiments() {
		if e.name == name {
			exp = &e
			break
		}
	}
	if exp == nil {
		return usage(stderr)
	}

	rc := &runCtx{stderr: stderr}
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	fs.BoolVar(&rc.quick, "quick", false, "reduced scale for a fast smoke run")
	workload := fs.String("workload", "", "single workload name (default: all)")
	seed := fs.Int64("seed", 42, "simulation seed")
	intel := fs.Bool("intel", false, "use the Intel Xeon profile instead of AMD")
	parallel := fs.Int("parallel", 0, "experiment-point workers: 0 = GOMAXPROCS, 1 = sequential")
	progress := fs.Bool("progress", false, "log per-point completion and engine timing to stderr")
	stream := fs.Bool("stream", false, "attach the streaming observer alongside the batch probes in sweeps")
	streamBytes := fs.Int("streambytes", 0, "streaming ring size in bytes (power of two; 0 = 4 MiB default)")
	metricsPath := fs.String("metrics", "", "write the run's metrics to this file in Prometheus text format on exit")
	fs.StringVar(&rc.journal, "journal", "", "record a JSONL run journal with per-point checkpoints to this file (telemetry, resume: read it)")
	fs.IntVar(&rc.top, "top", 5, "telemetry subcommand: number of slowest points to list")
	deadline := fs.Duration("deadline", 0, "per-point wall-clock budget; an overrunning point is killed and recorded as a gap (0 = none)")
	retries := fs.Int("retries", 0, "re-run a failed point up to N times with the same derived seed")
	chaos := fs.Bool("chaos", false, "inject a deterministic panic every 5th point and a hang every 7th (exercise supervision)")
	nodes := fs.Int("nodes", 16, "fleet subcommand: cluster size")
	fs.DurationVar(&rc.fleet.Scrape.Interval, "scrape-interval", 0, "fleet subcommand: scrape period (0 = 250ms)")
	fs.DurationVar(&rc.fleet.Scrape.Skew, "skew", 0, "fleet subcommand: per-node scrape jitter bound (0 = interval/10, negative = none)")
	fs.Float64Var(&rc.fleet.Scrape.MissRate, "missrate", 0.05, "fleet subcommand: probability a scrape attempt fails")
	fs.IntVar(&rc.fleet.Epochs, "epochs", 8, "fleet subcommand: scrape rounds per load level")
	fs.IntVar(&rc.trials, "trials", 5, "attribution subcommand: trials per fault scenario")
	fs.Parse(args) // ExitOnError: a bad flag has already exited with status 2
	// A ring is a power of two no smaller than its 8-byte record header.
	if n := *streamBytes; n < 0 || n != 0 && (n < 8 || n&(n-1) != 0) {
		fmt.Fprintf(stderr, "-streambytes %d: want 0 or a power of two >= 8\n", n)
		return 2
	}
	rc.fleet.Nodes = fleet.DefaultSpecs(*nodes)
	if exp.offline != nil {
		return exp.offline(rc, stdout)
	}

	opt := harness.ExpOptions{Seed: *seed}
	if rc.quick {
		opt = harness.Quick()
		opt.Seed = *seed
	}
	if *intel {
		opt.Profile = machine.Intel()
	}
	opt.Parallelism = *parallel
	opt.Stream = *stream
	opt.StreamBytes = *streamBytes
	opt.Deadline = *deadline
	opt.Retries = *retries
	opt.Resume = resume
	if *chaos {
		opt = harness.ChaosOptions(opt)
	}
	if *metricsPath != "" {
		opt.Telemetry = telemetry.New()
	}
	if rc.journal != "" {
		// A resumed run appends to the journal it is resuming from
		// (ResumeJournal) instead of truncating it (OpenJournal): if the
		// resumed process is killed before re-checkpointing anything, the
		// prior run's checkpoints must still be on disk — that crash
		// window is exactly what resume exists to survive.
		open := telemetry.OpenJournal
		if resume != nil {
			open = telemetry.ResumeJournal
		}
		j, err := open(rc.journal)
		if err != nil {
			fmt.Fprintln(stderr, "journal:", err)
			return 1
		}
		defer func() {
			if err := j.Close(); err != nil {
				fmt.Fprintln(stderr, "journal:", err)
			}
		}()
		// The header records the command so `reqlens resume` can replay
		// it; a resumed run re-records the original command, not
		// "resume", so resuming is idempotent.
		j.RunHeader(name, args)
		opt.Journal = j
	}
	if *progress {
		opt.Progress = func(p harness.PointDone) {
			note := ""
			if p.Cached {
				note = " [resumed]"
			}
			if p.Gap {
				note = " [gap]"
			}
			fmt.Fprintf(stderr, "[%3d/%3d] %-32s %8v (worker %d)%s\n",
				p.Index+1, p.Total, p.Label, p.Wall.Round(time.Millisecond), p.Worker, note)
		}
		opt.Stats = func(s harness.RunStats) {
			fmt.Fprintln(stderr, "engine:", s)
		}
	}
	rc.opt = opt

	rc.specs = workloads.All()
	if *workload != "" {
		s, ok := workloads.ByName(*workload)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *workload)
			return 2
		}
		rc.specs = []workloads.Spec{s}
	}

	exp.run(rc, stdout)
	if *metricsPath != "" {
		if err := writeMetrics(opt.Telemetry, *metricsPath); err != nil {
			fmt.Fprintln(stderr, "metrics:", err)
			return 1
		}
	}
	return 0
}

// writeMetrics dumps the registry to path in Prometheus text format.
func writeMetrics(r *telemetry.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteProm(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
