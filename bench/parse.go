package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The parsers below read the three text formats the traced run and the
// profile produce. They live here, not in internal/telemetry, so a
// refactor of the program's own readers cannot silently change what the
// benchmark measures.

// parseProm reads `reqlens -metrics` output (Prometheus text) into a
// name -> value map. Labelled series keep their labels in the key.
func parseProm(b []byte) (map[string]float64, error) {
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(b))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics line %d: no value in %q", n, line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %v", n, err)
		}
		out[strings.TrimSpace(line[:i])] = v
	}
	return out, sc.Err()
}

// journalSpans is what the benchmark needs from a `-journal` file: the
// summed wall time of experiment spans and of point spans.
type journalSpans struct {
	Experiments int
	Points      int
	ExperimentS float64
	PointS      float64
}

// parseJournal sums the experiment and point spans of a JSONL journal.
// A torn final line (the journal's own crash tolerance) is skipped; a
// malformed line elsewhere is an error.
func parseJournal(b []byte) (journalSpans, error) {
	var js journalSpans
	lines := bytes.Split(bytes.TrimRight(b, "\n"), []byte("\n"))
	for i, line := range lines {
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var rec struct {
			Kind  string `json:"kind"`
			DurNS int64  `json:"dur_ns"`
		}
		if err := json.Unmarshal(line, &rec); err != nil {
			if i == len(lines)-1 {
				break
			}
			return js, fmt.Errorf("journal line %d: %v", i+1, err)
		}
		switch rec.Kind {
		case "experiment":
			js.Experiments++
			js.ExperimentS += float64(rec.DurNS) / 1e9
		case "point":
			js.Points++
			js.PointS += float64(rec.DurNS) / 1e9
		}
	}
	return js, nil
}

// cpuBuckets are the CPU-split metrics, in print order. Their shares
// sum to 1.
var cpuBuckets = []string{
	"sim.cpu_share", "kernel.cpu_share", "ebpf.cpu_share", "probes.cpu_share",
	"core.cpu_share", "netsim.cpu_share", "loadgen.cpu_share", "workloads.cpu_share",
	"harness.cpu_share", "fleet.cpu_share", "telemetry.cpu_share", "stats.cpu_share",
	"goruntime.sched_cpu_share", "goruntime.gc_cpu_share", "goruntime.other_cpu_share",
	"other.cpu_share",
}

// layerPackages are the reqlens packages with a cpu_share bucket.
var layerPackages = func() map[string]bool {
	pkgs := make(map[string]bool)
	for _, b := range cpuBuckets {
		if pkg, ok := strings.CutSuffix(b, ".cpu_share"); ok && pkg != "other" {
			pkgs[pkg] = true
		}
	}
	return pkgs
}()

// Go-runtime functions are split by what they do for this program:
// goroutine hand-off (every sim.Proc switch is a channel round trip
// that parks one goroutine and readies another, with the scheduler's
// locks, timers and status words in between) versus allocation and
// collection. Matched case-insensitively on the function's name with
// the package stripped, hand-off list first.
var (
	runtimeSched = []string{
		"chan", "park", "ready", "futex", "findrunnable", "lock", "schedule",
		"casgstatus", "runq", "wakep", "steal", "note", "mcall", "gosched",
		"execute", "sema", "usleep", "osyield", "procyield", "selectgo", "sudog",
		"startm", "stopm", "handoff", "pidle", "timers", "nanotime", "netpoll",
		"goexit", "gogo", "spinning", "injectglist", "dropg", "send", "recv",
		"acquirem", "releasem", "guintptr", "muintptr",
	}
	runtimeGC = []string{
		"malloc", "gc", "scan", "sweep", "mark", "wb", "heap", "span", "mcache",
		"mcentral", "memclr", "grey", "bulkbarrier", "newobject", "growslice",
		"makeslice", "nextfree", "refill", "arena", "assist",
	}
)

// layerOf returns the cpu_share bucket of a reqlens layer function (as
// pprof prints it, with or without the module prefix), or "".
// container/heap counts as sim: the event heap is its only user.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "container/heap.") {
		return "sim.cpu_share"
	}
	pkg := strings.TrimPrefix(fn, "reqlens/internal/")
	if !strings.Contains(pkg, "/") {
		if i := strings.IndexByte(pkg, '.'); i > 0 && layerPackages[pkg[:i]] {
			return pkg[:i] + ".cpu_share"
		}
	}
	return ""
}

// runtimeBucketOf returns the goruntime bucket of a Go-runtime
// function, or "" for any other function. Assembly stubs such as gogo
// print without a package.
func runtimeBucketOf(fn string) string {
	if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "runtime/") &&
		!strings.HasPrefix(fn, "internal/runtime/") && strings.ContainsAny(fn, "./") {
		return ""
	}
	base := fn[strings.LastIndexByte(fn, '/')+1:]
	base = strings.ToLower(base[strings.IndexByte(base, '.')+1:])
	for _, k := range runtimeSched {
		if strings.Contains(base, k) {
			return "goruntime.sched_cpu_share"
		}
	}
	for _, k := range runtimeGC {
		if strings.Contains(base, k) {
			return "goruntime.gc_cpu_share"
		}
	}
	return "goruntime.other_cpu_share"
}

// bucketOf charges one CPU sample, given as its stack from the sampled
// function outwards, to a cpu_share bucket: the sampled function's own
// bucket if it is a layer function or Go-runtime hand-off or
// allocation/collection code; otherwise (standard library, map and
// memmove code in the runtime) the nearest caller that is a layer
// function, so strconv under telemetry.ParseProm counts as telemetry;
// with no such caller, goruntime.other or other.
func bucketOf(stack []string) string {
	leaf := stack[0]
	if b := layerOf(leaf); b != "" {
		return b
	}
	rt := runtimeBucketOf(leaf)
	if rt != "" && rt != "goruntime.other_cpu_share" {
		return rt
	}
	for _, fn := range stack[1:] {
		if b := layerOf(fn); b != "" {
			return b
		}
	}
	if rt != "" {
		return rt
	}
	return "other.cpu_share"
}

// parsePprofTraces reads `go tool pprof -traces` text (one block per
// distinct stack: the sample value and sampled function, then its
// callers) and returns each bucket's share of the samples (all buckets
// present, summing to 1) and the total sampled CPU seconds.
func parsePprofTraces(b []byte) (map[string]float64, float64, error) {
	flat := make(map[string]float64)
	total := 0.0
	var stack []string
	value := 0.0
	flush := func() {
		if len(stack) > 0 {
			flat[bucketOf(stack)] += value
			total += value
		}
		stack = stack[:0]
	}
	inBlocks := false
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inBlocks = true
			continue
		}
		f := strings.Fields(line)
		if !inBlocks || len(f) == 0 {
			continue
		}
		if len(stack) == 0 { // "  10ms   runtime.chanrecv1"
			if len(f) < 2 {
				return nil, 0, fmt.Errorf("pprof traces: %q: no function", line)
			}
			v, err := parsePprofValue(f[0])
			if err != nil {
				return nil, 0, fmt.Errorf("pprof traces: %q: %v", line, err)
			}
			value = v
			f = f[1:]
		}
		stack = append(stack, f[0]) // drops a trailing "(inline)"
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if total == 0 {
		return nil, 0, fmt.Errorf("pprof traces: no samples")
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, name := range cpuBuckets {
		shares[name] = flat[name] / total
	}
	return shares, total, nil
}

// parsePprofValue reads a pprof time cell ("0", "10ms", "1.52s",
// "2.1mins") as seconds.
func parsePprofValue(s string) (float64, error) {
	if s == "0" {
		return 0, nil
	}
	s = strings.Replace(s, "mins", "m", 1)
	s = strings.Replace(s, "hrs", "h", 1)
	d, err := time.ParseDuration(s)
	return d.Seconds(), err
}
