package core

import (
	"fmt"
	"sort"
	"time"

	"reqlens/internal/kernel"
)

// MultiObserver aggregates per-process observers across the stages of a
// multi-stage application — the Section V-B prescription: "for
// multi-stage workloads, like microservices, we would require eBPF
// observability of individual services ... to then combine the
// request-level observability metrics together."
//
// The client-facing stage's send rate estimates end-to-end throughput;
// the per-stage poll durations expose which stage is the saturation
// bottleneck (minimum slack across stages governs the pipeline).
type MultiObserver struct {
	names     []string
	observers []*Observer
}

// StageWindow is one stage's window plus its identity.
type StageWindow struct {
	Name   string
	Window Window
}

// MultiWindow is one synchronized sample across all stages.
type MultiWindow struct {
	Stages []StageWindow
}

// AttachStages attaches one observer per named stage config on k.
func AttachStages(k *kernel.Kernel, stages map[string]Config) (*MultiObserver, error) {
	if len(stages) == 0 {
		return nil, fmt.Errorf("core: no stages")
	}
	m := &MultiObserver{}
	// Deterministic order: sorted names.
	names := make([]string, 0, len(stages))
	for n := range stages {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		o, err := Attach(k, stages[n])
		if err != nil {
			m.Detach()
			return nil, fmt.Errorf("core: stage %q: %w", n, err)
		}
		m.names = append(m.names, n)
		m.observers = append(m.observers, o)
	}
	return m, nil
}

// Detach removes every stage's probes.
func (m *MultiObserver) Detach() {
	for _, o := range m.observers {
		o.Detach()
	}
}

// Sample reads all stages' windows.
func (m *MultiObserver) Sample() MultiWindow {
	var out MultiWindow
	for i, o := range m.observers {
		out.Stages = append(out.Stages, StageWindow{Name: m.names[i], Window: o.Sample().Window})
	}
	return out
}

// Stage returns the named stage's window, or false.
func (w MultiWindow) Stage(name string) (Window, bool) {
	for _, s := range w.Stages {
		if s.Name == name {
			return s.Window, true
		}
	}
	return Window{}, false
}

// BottleneckStage returns the stage with the shortest mean poll duration
// — the least idle stage, i.e. the one closest to saturation.
func (w MultiWindow) BottleneckStage() string {
	best := ""
	min := time.Duration(0)
	for _, s := range w.Stages {
		d := s.Window.Poll.MeanDuration
		if best == "" || d < min {
			best, min = s.Name, d
		}
	}
	return best
}

// MinPollDuration returns the pipeline's limiting idleness.
func (w MultiWindow) MinPollDuration() time.Duration {
	min := time.Duration(-1)
	for _, s := range w.Stages {
		if min < 0 || s.Window.Poll.MeanDuration < min {
			min = s.Window.Poll.MeanDuration
		}
	}
	if min < 0 {
		return 0
	}
	return min
}
