package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// Provenance says what was measured, where.
type Provenance struct {
	Seed       int64  `json:"seed"`
	Commit     string `json:"commit"` // "unknown" outside a git checkout
	Dirty      bool   `json:"dirty"`
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
}

// WorkloadResult is everything measured for one workload.
type WorkloadResult struct {
	Argv         []string           `json:"argv"`
	Points       int                `json:"points"`
	Attempted    int                `json:"attempted"`
	Failed       int                `json:"failed"`
	Problems     []string           `json:"problems,omitempty"`
	StdoutSHA256 string             `json:"stdout_sha256"`
	EndToEnd     map[string]Stat    `json:"end_to_end,omitempty"`
	Counts       map[string]float64 `json:"counts,omitempty"`
	PerLayer     map[string]Metric  `json:"per_layer,omitempty"`
	Spans        []Span             `json:"spans,omitempty"`
}

// Result is the file `-out` writes and `-compare` reads.
type Result struct {
	Provenance Provenance                 `json:"provenance"`
	Noisy      bool                       `json:"noisy"`
	CalibS     [2]float64                 `json:"host.calib_s"` // before, after
	Workloads  map[string]*WorkloadResult `json:"workloads"`
}

func gitOutput(root string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = root
	out, err := cmd.Output()
	return strings.TrimSpace(string(out)), err
}

func provenance(root string, seed int64) Provenance {
	p := Provenance{
		Seed: seed, Commit: "unknown",
		Date:      time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	if head, err := gitOutput(root, "rev-parse", "HEAD"); err == nil {
		p.Commit = head
		status, err := gitOutput(root, "status", "--porcelain")
		p.Dirty = err != nil || status != ""
	}
	return p
}

func writeResult(path string, r *Result) error {
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*Result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	return &r, nil
}

// appendHistory appends one {commit, date, seed, metrics} line: the
// end-to-end medians of every workload in r.
func appendHistory(path string, r *Result) error {
	metrics := make(map[string]map[string]float64)
	for name, w := range r.Workloads {
		metrics[name] = make(map[string]float64)
		for m, st := range w.EndToEnd {
			metrics[name][m] = st.Median
		}
	}
	line, err := json.Marshal(struct {
		Commit  string                        `json:"commit"`
		Dirty   bool                          `json:"dirty"`
		Date    string                        `json:"date"`
		Seed    int64                         `json:"seed"`
		Noisy   bool                          `json:"noisy"`
		Metrics map[string]map[string]float64 `json:"metrics"`
	}{r.Provenance.Commit, r.Provenance.Dirty, r.Provenance.Date, r.Provenance.Seed, r.Noisy, metrics})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
