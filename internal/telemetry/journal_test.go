package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestJournalNilSafety(t *testing.T) {
	var j *Journal
	sp := j.Begin(KindPoint, "x")
	if sp != nil {
		t.Fatal("nil journal must return nil span")
	}
	sp.End(map[string]float64{"a": 1}) // must not panic
}

// tempJournal opens a journal on a file under t.TempDir() and returns
// it with a reader that closes it and parses what it wrote.
func tempJournal(t *testing.T) (*Journal, func() ([]Record, error)) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	return j, func() ([]Record, error) {
		if err := j.Close(); err != nil {
			return nil, err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return ReadJournal(bytes.NewReader(data))
	}
}

func TestJournalRoundTrip(t *testing.T) {
	j, read := tempJournal(t)

	exp := j.Begin(KindExperiment, "fig2 silo")
	pt := j.Begin(KindPoint, "silo level=0.50")
	win := j.Begin(KindWindow, "silo level=0.50 win=0")
	win.End(nil)
	pt.End(map[string]float64{"sim_events_total": 42, "ringbuf_records_dropped_total": 3})
	exp.End(nil)

	recs, err := read()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("records = %d, want 3", len(recs))
	}
	// Completion order: window, point, experiment.
	if recs[0].Kind != KindWindow || recs[1].Kind != KindPoint || recs[2].Kind != KindExperiment {
		t.Fatalf("kinds = %s,%s,%s", recs[0].Kind, recs[1].Kind, recs[2].Kind)
	}
	if recs[1].Metrics["sim_events_total"] != 42 {
		t.Fatalf("point metrics lost: %v", recs[1].Metrics)
	}
	if recs[1].Name != "silo level=0.50" {
		t.Fatalf("name = %q", recs[1].Name)
	}
	for _, r := range recs {
		if r.StartNS < 0 || r.DurNS < 0 {
			t.Fatalf("negative timing in %+v", r)
		}
	}
	// Span nesting: the experiment span must contain the point span.
	if recs[2].StartNS > recs[1].StartNS {
		t.Fatal("experiment started after its point")
	}
}

func TestJournalConcurrentEmits(t *testing.T) {
	j, read := tempJournal(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j.Begin(KindPoint, "p").End(map[string]float64{"w": float64(w)})
			}
		}(w)
	}
	wg.Wait()
	recs, err := read()
	if err != nil {
		t.Fatalf("interleaved writes corrupted the journal: %v", err)
	}
	if len(recs) != 400 {
		t.Fatalf("records = %d, want 400", len(recs))
	}
}

func TestReadJournalErrors(t *testing.T) {
	// A malformed line followed by a well-formed one is corruption.
	corrupt := "{not json\n" + `{"kind":"point","name":"p","start_ns":1,"dur_ns":1}` + "\n"
	if _, err := ReadJournal(strings.NewReader(corrupt)); err == nil {
		t.Fatal("want error on mid-file malformed line")
	}
	recs, err := ReadJournal(strings.NewReader("\n\n"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("blank journal: %v, %v", recs, err)
	}
}

// TestReadJournalTornTail: a writer killed mid-append leaves a partial
// final line; the reader drops it and keeps everything before it.
func TestReadJournalTornTail(t *testing.T) {
	whole := `{"kind":"checkpoint","name":"a","start_ns":1,"status":"ok"}` + "\n"
	for _, tail := range []string{
		`{"kind":"checkpo`,          // torn mid-key
		`{"kind":"checkpoint","na`,  // torn mid-record
		"{not json",                 // garbage tail
		`{"kind":"checkpo` + "\n\n", // torn line then blank lines
	} {
		recs, err := ReadJournal(strings.NewReader(whole + tail))
		if err != nil {
			t.Fatalf("tail %q must be tolerated: %v", tail, err)
		}
		if len(recs) != 1 || recs[0].Name != "a" {
			t.Fatalf("tail %q: records = %+v", tail, recs)
		}
	}
	// A journal that is nothing but a torn line reads as empty.
	recs, err := ReadJournal(strings.NewReader("{not json\n"))
	if err != nil || len(recs) != 0 {
		t.Fatalf("lone torn line: %v, %v", recs, err)
	}
}

// TestFileJournalAtomicCheckpoints: every checkpoint is appended and
// fsynced whole, so after each Checkpoint call the on-disk journal is
// complete and parseable up to and including that checkpoint.
func TestFileJournalAtomicCheckpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("journal file must exist immediately: %v", err)
	}

	j.RunHeader("fig2", []string{"-workload", "silo", "-seed", "42"})
	for i := 0; i < 3; i++ {
		j.Checkpoint(Record{
			Name: "silo level=" + string(rune('1'+i)), Index: i, Seed: 42,
			Attempts: 1, Status: CheckpointOK,
			Result: json.RawMessage(`{"v":` + string(rune('0'+i)) + `}`),
		})
		// After each checkpoint the path must hold a complete journal.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := ReadJournal(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("after checkpoint %d: %v", i, err)
		}
		if len(recs) != i+2 {
			t.Fatalf("after checkpoint %d: %d records", i, len(recs))
		}
	}
	// Span records buffer until Close.
	j.Begin(KindPoint, "tail").End(nil)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(path)
	recs, err := ReadJournal(bytes.NewReader(data))
	if err != nil || len(recs) != 5 {
		t.Fatalf("final journal: %d records, %v", len(recs), err)
	}

	hdr, ok := LastRunHeader(recs)
	if !ok || hdr.Name != "fig2" || len(hdr.Args) != 4 {
		t.Fatalf("run header = %+v, %v", hdr, ok)
	}
	cps := Checkpoints(recs)
	if len(cps) != 3 {
		t.Fatalf("checkpoints = %v", cps)
	}
	cp := cps[CheckpointKey("", "silo level=2")]
	if cp.Index != 1 || cp.Seed != 42 || string(cp.Result) != `{"v":1}` {
		t.Fatalf("checkpoint = %+v", cp)
	}
	// No temp file left behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file lingers: %v", err)
	}
}

// TestResumeJournalPreserves: reopening a journal for a resumed run
// keeps the prior run's records on disk — before the resumed process
// writes anything, after a simulated second kill, and with a torn tail
// normalized away so later appends cannot strand a malformed line
// mid-file.
func TestResumeJournalPreserves(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.RunHeader("fig2", []string{"-seed", "42"})
	j.Checkpoint(Record{Name: "a", Seed: 42, Status: CheckpointOK, Result: json.RawMessage(`{"v":1}`)})
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the tail as a SIGKILL mid-append would.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"kind":"checkpo`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	// The prior run's records must be readable immediately, before the
	// resumed run emits anything (the second-kill crash window).
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || len(Checkpoints(recs)) != 1 {
		t.Fatalf("prior records lost on reopen: %+v", recs)
	}

	// New records append after the preserved ones.
	j2.RunHeader("fig2", []string{"-seed", "42"})
	j2.Checkpoint(Record{Name: "b", Seed: 42, Status: CheckpointOK, Result: json.RawMessage(`{"v":2}`)})
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	data, _ = os.ReadFile(path)
	recs, err = ReadJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("resumed journal unreadable (stranded torn line?): %v", err)
	}
	if len(recs) != 4 || len(Checkpoints(recs)) != 2 {
		t.Fatalf("resumed journal = %+v", recs)
	}
	if hdr, ok := LastRunHeader(recs); !ok || hdr.Name != "fig2" {
		t.Fatalf("run header = %+v, %v", hdr, ok)
	}
}

// TestCheckpointsSemantics: failed checkpoints are excluded, a later
// checkpoint for the same (experiment, label) wins (resume-of-resume),
// and the same label under different experiments stays distinct — two
// experiments in one journal must not shadow each other's results.
func TestCheckpointsSemantics(t *testing.T) {
	recs := []Record{
		{Kind: KindCheckpoint, Name: "a", Status: CheckpointFailed, Error: "boom"},
		{Kind: KindCheckpoint, Name: "b", Status: CheckpointOK, Index: 1},
		{Kind: KindCheckpoint, Name: "b", Status: CheckpointOK, Index: 2},
		{Kind: KindCheckpoint, Experiment: "sweep", Name: "b", Status: CheckpointOK, Index: 7},
		{Kind: KindPoint, Name: "c"},
	}
	cps := Checkpoints(recs)
	if len(cps) != 2 {
		t.Fatalf("checkpoints = %v", cps)
	}
	if cps[CheckpointKey("", "b")].Index != 2 {
		t.Fatalf("last checkpoint must win: %+v", cps[CheckpointKey("", "b")])
	}
	if cps[CheckpointKey("sweep", "b")].Index != 7 {
		t.Fatalf("experiment namespace collapsed: %+v", cps)
	}
	if _, ok := LastRunHeader(recs); ok {
		t.Fatal("no run header present")
	}
}

// TestRenderJournalUnknownKinds: checkpoint/run records flow through the
// renderer's generic phase path without crashing it.
func TestRenderJournalCheckpointKinds(t *testing.T) {
	recs := []Record{
		{Kind: KindRun, Name: "fig2"},
		{Kind: KindCheckpoint, Name: "a", Status: CheckpointOK},
		{Kind: KindPoint, Name: "a", DurNS: 100},
	}
	out := RenderJournal(recs, 5)
	for _, want := range []string{"checkpoint", "run", "point"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderJournal(t *testing.T) {
	if out := RenderJournal(nil, 0); !strings.Contains(out, "empty") {
		t.Fatalf("empty render = %q", out)
	}

	j, read := tempJournal(t)
	exp := j.Begin(KindExperiment, "fig2 silo")
	for i := 0; i < 3; i++ {
		pt := j.Begin(KindPoint, "silo level="+string(rune('1'+i)))
		j.Begin(KindWindow, "w").End(nil)
		pt.End(map[string]float64{
			"sim_events_total":              1000,
			"vm_instructions_total":         500,
			"ringbuf_records_dropped_total": float64(i),
		})
	}
	exp.End(nil)
	recs, err := read()
	if err != nil {
		t.Fatal(err)
	}
	out := RenderJournal(recs, 2)
	for _, want := range []string{"phase", "experiment", "point", "window", "slowest points (top 2)", "sim events"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Drops column: 0+1+2 = 3 across the point phase.
	if !strings.Contains(out, "3") {
		t.Fatalf("render missing drop sum:\n%s", out)
	}
}
