package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span kinds emitted by the harness. The hierarchy is
// experiment -> point (one workload x level on a private rig) -> window
// (one estimation window inside a point). Beside the spans, two marker
// kinds make a journal a checkpoint log: a run header identifying the
// invocation, and one checkpoint per completed (or abandoned) point
// carrying the point's serialized result so an interrupted run can be
// resumed without recomputing it.
const (
	KindExperiment = "experiment"
	KindPoint      = "point"
	KindWindow     = "window"
	KindRun        = "run"        // run header: command name + args
	KindCheckpoint = "checkpoint" // one completed/failed point + result
)

// Checkpoint statuses.
const (
	CheckpointOK     = "ok"     // Result holds the point's serialized value
	CheckpointFailed = "failed" // Error holds the failure; the point must re-run
)

// Record is one completed span in the run journal: a JSONL line carrying
// monotonic wall-clock timing and, for point spans, a snapshot of the
// rig's metric registry. Journals describe the *execution* of a run
// (real time, real scheduling) and are therefore not deterministic;
// experiment results never read them.
type Record struct {
	Kind    string             `json:"kind"`
	Name    string             `json:"name"`
	StartNS int64              `json:"start_ns"` // monotonic ns since journal creation
	DurNS   int64              `json:"dur_ns"`
	Metrics map[string]float64 `json:"metrics,omitempty"`

	// Checkpoint/run-header payload; zero on plain span records. Name
	// carries the point label (checkpoints) or command name (run
	// headers), so old readers render these records harmlessly.
	Experiment string          `json:"experiment,omitempty"` // experiment scope the point belongs to
	Index      int             `json:"index,omitempty"`      // point index within its batch
	Seed       int64           `json:"seed,omitempty"`       // root seed the result derives from
	Attempts   int             `json:"attempts,omitempty"`   // supervisor attempts consumed
	Status     string          `json:"status,omitempty"`     // CheckpointOK or CheckpointFailed
	Error      string          `json:"error,omitempty"`      // failure rendering (status failed)
	Args       []string        `json:"args,omitempty"`       // run header: invocation flags
	Result     json.RawMessage `json:"result,omitempty"`     // the point's serialized value
}

// Dur returns the span duration.
func (r Record) Dur() time.Duration { return time.Duration(r.DurNS) }

// Journal serializes span records as JSONL. It is safe for concurrent
// use (the parallel engine completes points on several goroutines);
// records are written whole, one per line, in completion order. A nil
// *Journal discards everything, which is how telemetry stays out of
// undashboarded runs.
//
// Two backing modes:
//
//   - Stream mode (NewJournal): records append to an io.Writer as they
//     are emitted. A crash can tear the final line; ReadJournal
//     tolerates that.
//   - File mode (OpenJournal / ResumeJournal): the journal owns an
//     append-mode file. Durability-bearing records — run headers,
//     checkpoints, experiment spans — append the pending tail and
//     fsync, so after Checkpoint returns the point survives SIGKILL. A
//     kill mid-append can tear at most the final line, which
//     ReadJournal drops; every record behind the last fsync is intact.
//     Each record's bytes are written exactly once, so a long sweep
//     pays O(journal) total I/O, not O(journal^2). Window/point spans
//     buffer between flushes; losing an unflushed span tail costs
//     observability, never resumability.
type Journal struct {
	mu    sync.Mutex
	w     io.Writer // stream mode; nil in file mode
	epoch time.Time

	// File mode state.
	f       *os.File // append-mode journal file
	pending []byte   // span records awaiting the next durable flush
	err     error    // first write error, surfaced by Close
}

// NewJournal returns a stream-mode journal writing to w. Timestamps are
// monotonic durations since this call.
func NewJournal(w io.Writer) *Journal {
	return &Journal{w: w, epoch: time.Now()}
}

// OpenJournal returns a file-mode journal persisted at path (see
// Journal). Any previous contents are truncated — a fresh run owns its
// journal; `reqlens resume` uses ResumeJournal to preserve the run it
// is resuming. The file is created (empty) immediately so a crash
// before the first record still leaves a readable journal.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f, epoch: time.Now()}, nil
}

// ResumeJournal reopens an existing journal for a resumed run: the
// prior run's records are preserved and new records append after them.
// The old contents are normalized once with write-temp-then-rename —
// parsing drops a torn tail line so later appends cannot strand a
// malformed line mid-file — and are never rewritten again. This is how
// `reqlens resume` keeps the checkpoints it is replaying: a resumed
// process killed before it re-checkpoints anything still leaves the
// original run's checkpoints on disk.
func ResumeJournal(path string) (*Journal, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	recs, err := ReadJournal(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var buf []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return nil, err
		}
		buf = append(buf, line...)
		buf = append(buf, '\n')
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, buf, 0o644); err != nil {
		return nil, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f, epoch: time.Now()}, nil
}

// syncLocked appends the pending records to the file and fsyncs,
// making everything emitted so far durable. Callers hold j.mu.
func (j *Journal) syncLocked() {
	if len(j.pending) > 0 {
		if _, err := j.f.Write(j.pending); err != nil {
			if j.err == nil {
				j.err = err
			}
			return
		}
		j.pending = j.pending[:0]
	}
	if err := j.f.Sync(); err != nil && j.err == nil {
		j.err = err
	}
}

// Close flushes a file-mode journal's buffered tail, closes the file,
// and reports the first error any write hit. Stream-mode journals and
// nil journals return nil (the caller owns the writer).
func (j *Journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.syncLocked()
	if err := j.f.Close(); err != nil && j.err == nil {
		j.err = err
	}
	return j.err
}

// RunHeader records the invocation this journal checkpoints: the
// command name and its argument list, which `resume` replays to
// reconstruct the run's configuration. Flushed atomically in file mode.
// No-op on a nil journal.
func (j *Journal) RunHeader(name string, args []string) {
	if j == nil {
		return
	}
	j.emit(Record{Kind: KindRun, Name: name, Args: args,
		StartNS: int64(time.Since(j.epoch))})
}

// Checkpoint records one completed (or abandoned) point. The record's
// Kind is forced to KindCheckpoint and its timestamp to now; everything
// else — label in Name, Experiment, Index, Seed, Status, Result or
// Error — is the caller's. Appended and fsynced in file mode, so after
// Checkpoint returns the point survives SIGKILL. No-op on a nil
// journal.
func (j *Journal) Checkpoint(rec Record) {
	if j == nil {
		return
	}
	rec.Kind = KindCheckpoint
	rec.StartNS = int64(time.Since(j.epoch))
	j.emit(rec)
}

// Span is an open interval started by Begin. End emits the record. A nil
// *Span (from a nil journal) is inert.
type Span struct {
	j     *Journal
	kind  string
	name  string
	start time.Duration
}

// Begin opens a span of the given kind. Returns nil (inert) on a nil
// journal.
func (j *Journal) Begin(kind, name string) *Span {
	if j == nil {
		return nil
	}
	return &Span{j: j, kind: kind, name: name, start: time.Since(j.epoch)}
}

// End closes the span and writes its record, attaching the given metric
// snapshot (may be nil). No-op on a nil span.
func (s *Span) End(metrics map[string]float64) {
	if s == nil {
		return
	}
	now := time.Since(s.j.epoch)
	s.j.emit(Record{
		Kind:    s.kind,
		Name:    s.name,
		StartNS: int64(s.start),
		DurNS:   int64(now - s.start),
		Metrics: metrics,
	})
}

func (j *Journal) emit(rec Record) {
	line, err := json.Marshal(rec)
	if err != nil {
		return // a map[string]float64 cannot fail to marshal; defensive
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f != nil {
		j.pending = append(j.pending, line...)
		j.pending = append(j.pending, '\n')
		// Only durability-bearing records pay the write+fsync; span
		// records ride along on the next flush or Close.
		switch rec.Kind {
		case KindRun, KindCheckpoint, KindExperiment:
			j.syncLocked()
		}
		return
	}
	j.w.Write(line)
	j.w.Write([]byte{'\n'})
}

// ReadJournal parses a JSONL journal back into records, in file order.
// Blank lines are skipped. A malformed *final* line is a torn tail — a
// writer killed mid-append — and is silently dropped: everything before
// it is intact and a resume proceeds from the last whole record.
// Malformed lines followed by well-formed ones are real corruption and
// error out.
func ReadJournal(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	tornLine := 0 // most recent malformed line, pending a verdict
	var tornErr error
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		if tornErr != nil {
			// The malformed line was not last: corruption, not a tear.
			return nil, fmt.Errorf("telemetry: journal line %d: %v", tornLine, tornErr)
		}
		var rec Record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			tornLine, tornErr = line, err
			continue
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// LastRunHeader returns the most recent run-header record, if any. A
// journal written by one invocation has exactly one; resumed runs
// append their own, and the latest wins.
func LastRunHeader(recs []Record) (Record, bool) {
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Kind == KindRun {
			return recs[i], true
		}
	}
	return Record{}, false
}

// CheckpointKey composes the resume-map key for a checkpoint: the
// experiment scope plus the point label. Point labels are only unique
// within one experiment's batch — sweeps and agreement runs both label
// points "<workload> level=X" — so a journal covering several
// experiments (`reqlens all`) must key checkpoints by both, or a
// later experiment's checkpoint would shadow an earlier one's and
// resume would replay the wrong record's bytes. The separator is a NUL
// byte, which no human-readable scope or label contains.
func CheckpointKey(experiment, label string) string {
	return experiment + "\x00" + label
}

// Checkpoints indexes a journal's successful checkpoints by
// CheckpointKey(experiment, label), last record winning (a resumed run
// re-emits checkpoints for cached points, so resume-of-resume sees a
// complete set). Failed checkpoints are excluded — those points must
// re-run.
func Checkpoints(recs []Record) map[string]Record {
	out := map[string]Record{}
	for _, r := range recs {
		if r.Kind == KindCheckpoint && r.Status == CheckpointOK {
			out[CheckpointKey(r.Experiment, r.Name)] = r
		}
	}
	return out
}

// journalDropKeys are the metric names whose sum across point spans is
// reported as "drops" in the phase table.
var journalDropKeys = []string{"ringbuf_records_dropped_total", "stream_dropped_total"}

// RenderJournal formats a journal as (1) a per-phase summary — span
// count, total/mean/max wall-clock, simulated events folded, ring drops
// — and (2) the top-N slowest point spans with their headline metrics.
func RenderJournal(recs []Record, topN int) string {
	if topN <= 0 {
		topN = 10
	}
	var b strings.Builder
	if len(recs) == 0 {
		return "journal: empty\n"
	}

	// Phase table, in hierarchy order then any unknown kinds.
	order := []string{KindExperiment, KindPoint, KindWindow}
	byKind := map[string][]Record{}
	for _, r := range recs {
		byKind[r.Kind] = append(byKind[r.Kind], r)
	}
	var kinds []string
	for _, k := range order {
		if len(byKind[k]) > 0 {
			kinds = append(kinds, k)
		}
	}
	var extra []string
	for k := range byKind {
		known := false
		for _, o := range order {
			if k == o {
				known = true
			}
		}
		if !known {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	kinds = append(kinds, extra...)

	fmt.Fprintf(&b, "%-10s | %5s | %10s | %10s | %10s | %12s | %8s\n",
		"phase", "spans", "total", "mean", "max", "sim events", "drops")
	for _, k := range kinds {
		rs := byKind[k]
		var total, max time.Duration
		var events, drops float64
		for _, r := range rs {
			d := r.Dur()
			total += d
			if d > max {
				max = d
			}
			events += r.Metrics["sim_events_total"]
			for _, key := range journalDropKeys {
				drops += r.Metrics[key]
			}
		}
		mean := total / time.Duration(len(rs))
		fmt.Fprintf(&b, "%-10s | %5d | %10v | %10v | %10v | %12.0f | %8.0f\n",
			k, len(rs), total.Round(time.Microsecond), mean.Round(time.Microsecond),
			max.Round(time.Microsecond), events, drops)
	}

	// Throughput: simulated events per wall-clock second over point spans
	// (each point runs on a private rig, so sums are meaningful).
	points := byKind[KindPoint]
	if len(points) > 0 {
		var wall time.Duration
		var events float64
		for _, r := range points {
			wall += r.Dur()
			events += r.Metrics["sim_events_total"]
		}
		if wall > 0 && events > 0 {
			fmt.Fprintf(&b, "point throughput: %.0f sim events/s of wall-clock\n", events/wall.Seconds())
		}

		sorted := append([]Record(nil), points...)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].DurNS != sorted[j].DurNS {
				return sorted[i].DurNS > sorted[j].DurNS
			}
			return sorted[i].Name < sorted[j].Name
		})
		if len(sorted) > topN {
			sorted = sorted[:topN]
		}
		fmt.Fprintf(&b, "\nslowest points (top %d):\n", len(sorted))
		fmt.Fprintf(&b, "%-36s | %10s | %12s | %10s | %8s\n",
			"point", "wall", "sim events", "vm insns", "drops")
		for _, r := range sorted {
			var drops float64
			for _, key := range journalDropKeys {
				drops += r.Metrics[key]
			}
			fmt.Fprintf(&b, "%-36s | %10v | %12.0f | %10.0f | %8.0f\n",
				r.Name, r.Dur().Round(time.Microsecond),
				r.Metrics["sim_events_total"], r.Metrics["vm_instructions_total"], drops)
		}
	}
	return b.String()
}
