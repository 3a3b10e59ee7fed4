package main

// metricDef names one metric. BENCHMARK.json at the repository root
// lists the same names, units and directions (bench_test.go checks the
// two against each other); Bound applies to end-to-end metrics only.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median it may worsen by
}

// endToEnd are the metrics a user of reqlens sees, per workload. All
// are host-clock. fail_share, the sixth end-to-end number, is reported
// as failed / attempted instead: it is 0 on a healthy run, and a bound
// is a share of the baseline.
var endToEnd = []metricDef{
	{"host_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
	{"tracepoints_per_s", "1/s", "higher", 0.25},
}

// counts are the exact simulated counts of the traced run: name here,
// `reqlens -metrics` series there. Bit-identical for a fixed seed, so
// two commits compare exactly (-compare).
var counts = []struct{ name, series string }{
	{"sim.events", "sim_events_total"},
	{"kernel.dispatches", "sched_dispatches_total"},
	{"kernel.ctx_switches", "sched_ctx_switches_total"},
	{"kernel.preemptions", "sched_preemptions_total"},
	{"kernel.tracepoint_fires", "trace_tracepoint_fires_total"},
	{"kernel.sched_switch_fires", "trace_sched_switch_fires_total"},
	{"kernel.sched_wakeup_fires", "trace_sched_wakeup_fires_total"},
	{"ebpf.runs", "vm_runs_total"},
	{"ebpf.insns", "vm_instructions_total"},
	{"ebpf.helper_calls", "vm_helper_calls_total"},
	{"ebpf.map_ops", "vm_map_ops_total"},
	{"ebpf.run_errors", "vm_run_errors_total"},
	{"ebpf.verifier_programs", "verifier_programs_total"},
	{"ebpf.verifier_states", "verifier_states_total"},
	{"ebpf.ring_bytes_produced", "ringbuf_bytes_produced_total"},
	{"ebpf.ring_bytes_consumed", "ringbuf_bytes_consumed_total"},
	{"ebpf.ring_records_dropped", "ringbuf_records_dropped_total"},
	{"core.stream_events", "stream_events_total"},
	{"harness.points", "harness_points_total"},
	{"harness.points_gapped", "resilience_gaps_total"},
	{"fleet.scrapes", "node_scrapes_total"},
}

// perLayer lists every per-layer metric in print order. The counts
// above come first; fleet.scrapes_missed is read from stdout.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, c := range counts {
		defs = append(defs, metricDef{Name: c.name, Unit: "count", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "fleet.scrapes_missed", Unit: "count", Better: "lower"},
		// Derived from the counts (exact, sim clock).
		metricDef{Name: "ebpf.insns_per_run", Unit: "ratio", Better: "lower"},
		metricDef{Name: "kernel.fires_per_event", Unit: "ratio", Better: "lower"},
		metricDef{Name: "ebpf.ring_drop_ratio", Unit: "ratio", Better: "lower"},
		metricDef{Name: "fleet.miss_ratio", Unit: "ratio", Better: "lower"},
		// Traced CLI run, host clock.
		metricDef{Name: "sim.host_ns_per_event", Unit: "ns", Better: "lower"},
		metricDef{Name: "harness.point_wall_s", Unit: "s", Better: "lower"},
		metricDef{Name: "harness.engine_overhead_s", Unit: "s", Better: "lower"},
		metricDef{Name: "cmd.outside_experiment_s", Unit: "s", Better: "lower"},
		metricDef{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
		// In-process layer pass: spans, Go runtime, CPU split.
		metricDef{Name: "harness.rig_build_s", Unit: "s", Better: "lower"},
		metricDef{Name: "harness.warmup_s", Unit: "s", Better: "lower"},
		metricDef{Name: "harness.measure_s", Unit: "s", Better: "lower"},
		metricDef{Name: "harness.close_s", Unit: "s", Better: "lower"},
		metricDef{Name: "fleet.cluster_build_s", Unit: "s", Better: "lower"},
		metricDef{Name: "fleet.warmup_s", Unit: "s", Better: "lower"},
		metricDef{Name: "fleet.scrape_epoch_s", Unit: "s", Better: "lower"},
		metricDef{Name: "fleet.scrape_epoch_median_s", Unit: "s", Better: "lower"},
		metricDef{Name: "goruntime.mallocs", Unit: "count", Better: "lower"},
		metricDef{Name: "goruntime.alloc_mb", Unit: "MB", Better: "lower"},
		metricDef{Name: "goruntime.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "goruntime.cpu_sampled_s", Unit: "s", Better: "lower"},
	)
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{Name: b, Unit: "ratio", Better: "lower"})
	}
	// Unit costs, host ns per call.
	for _, n := range []string{
		"sim.post_ns", "sim.handoff_ns", "kernel.syscall_ns", "kernel.traced_syscall_ns",
		"ebpf.run_ns", "ebpf.ns_per_insn", "ebpf.load_ns", "ebpf.ring_record_ns",
		"core.sample_ns", "fleet.export_ns", "telemetry.writeprom_ns", "telemetry.parseprom_ns",
	} {
		defs = append(defs, metricDef{Name: n, Unit: "ns", Better: "lower"})
	}
	return defs
}()

// tracedMetrics turns a traced run's -metrics series, -journal spans
// and stdout into the count, derived and host per-layer metrics.
// untracedHostS and untracedCPUS are the medians of the untraced
// repetitions the traced run is compared with.
func tracedMetrics(prom map[string]float64, js journalSpans, stdout string, tracedHostS, untracedHostS, untracedCPUS float64) map[string]Metric {
	m := make(map[string]Metric)
	for _, c := range counts {
		m[c.name] = Metric{prom[c.series], "count"} // an absent series is a layer that did not run: 0
	}
	missed := fleetMissed(stdout)
	m["fleet.scrapes_missed"] = Metric{missed, "count"}

	ratio := func(name string, num, den float64) {
		v := 0.0
		if den != 0 {
			v = num / den
		}
		m[name] = Metric{v, "ratio"}
	}
	get := func(name string) float64 { return m[name].Value }
	ratio("ebpf.insns_per_run", get("ebpf.insns"), get("ebpf.runs"))
	ratio("kernel.fires_per_event", get("kernel.tracepoint_fires"), get("sim.events"))
	dropped := get("ebpf.ring_records_dropped")
	ratio("ebpf.ring_drop_ratio", dropped, get("core.stream_events")+dropped)
	ratio("fleet.miss_ratio", missed, get("fleet.scrapes")+missed)

	hostNS := 0.0
	if ev := get("sim.events"); ev > 0 {
		hostNS = untracedCPUS * 1e9 / ev
	}
	m["sim.host_ns_per_event"] = Metric{hostNS, "ns"}
	m["harness.point_wall_s"] = Metric{js.PointS, "s"}
	// Negative when points overlap under -parallel (fleet-16).
	m["harness.engine_overhead_s"] = Metric{js.ExperimentS - js.PointS, "s"}
	m["cmd.outside_experiment_s"] = Metric{tracedHostS - js.ExperimentS, "s"}
	m["trace.overhead_pct"] = Metric{100 * (tracedHostS - untracedHostS) / untracedHostS, "%"}
	return m
}
