package harness

import (
	"fmt"
	"strings"

	"reqlens/internal/faults"
	"reqlens/internal/resilience"
	"reqlens/internal/workloads"
)

// PlanR2 is one fault plan's correlation quality for one workload.
type PlanR2 struct {
	Plan string
	// R2 is the Fig. 2 regression's coefficient of determination with
	// the plan armed on every measured level.
	R2 float64
	// Delta is R2 minus the fault-free baseline R2 of the same workload
	// (index 0 of the matrix row). Near zero means the syscall-derived
	// metric survived the perturbation — the paper's Table II claim
	// extended to kernel-side faults.
	Delta float64
}

// RobustnessRow is one workload's R² across all fault plans.
type RobustnessRow struct {
	Workload string
	Baseline float64  // fault-free R²
	Plans    []PlanR2 // one per requested plan, in input order

	// Gaps lists the labels of cells this workload lost to supervision
	// gaps; affected plans' R² spans the surviving levels only. Absent
	// from JSON on complete runs.
	Gaps []string `json:",omitempty"`
}

// RobustnessMatrix runs the Fig. 2 correlation protocol for every
// (workload, fault plan, load level) cell and reports each plan's R²
// delta against the fault-free baseline of the same workload. The
// whole grid fans out as one engine batch, so parallelism spans
// workloads and plans as well as levels; for a fixed Seed the matrix
// is bit-identical at any Parallelism. An implicit baseline (empty
// plan) is always run first — it reproduces the plain Fig2/Table2
// windows exactly.
func RobustnessMatrix(specs []workloads.Spec, plans []faults.Plan, opt ExpOptions) []RobustnessRow {
	opt = opt.withDefaults()
	all := append([]faults.Plan{{Name: "baseline"}}, plans...)
	var cells []Cell
	for si, spec := range specs {
		for _, p := range all {
			cells = append(cells, opt.LevelCells(Cell{
				Label: fmt.Sprintf("%s plan=%s", spec.Name, p.Name), Spec: spec, Plan: p, Row: si,
			}, 1)...)
		}
	}
	ests, st := RunCells(opt, "robustness", cells, fig2Level, nil)
	nl, np := len(opt.Levels), len(all)
	rows := make([]RobustnessRow, 0, len(specs))
	for si, spec := range specs {
		row := RobustnessRow{Workload: spec.Name}
		r2 := make([]float64, np)
		for pi := range all {
			base := (si*np + pi) * nl
			r2[pi] = fig2Assemble(spec.Name, ests[base:base+nl]).Fit.R2
		}
		row.Baseline = r2[0]
		for pi, p := range plans {
			row.Plans = append(row.Plans, PlanR2{
				Plan: p.Name, R2: r2[pi+1], Delta: r2[pi+1] - row.Baseline,
			})
		}
		rows = append(rows, row)
	}
	for _, g := range st.Gaps {
		row := &rows[cells[g.Index].Row]
		row.Gaps = append(row.Gaps, g.Label)
	}
	return rows
}

// ChaosOptions arms opt for the robustness matrix's chaos level: the
// default chaos schedule (a panic every 5th point, a hang every 7th)
// layered on top of whatever fault plans the matrix already runs, with
// enough retries that every injection recovers. Because retries replay
// the same derived seed, a chaos matrix equals the unperturbed matrix
// value-for-value — the strongest end-to-end statement the supervision
// stack can make (TestRobustnessChaosIdentical pins it).
func ChaosOptions(opt ExpOptions) ExpOptions {
	opt.Chaos = resilience.DefaultChaos()
	if opt.Retries < 1 {
		opt.Retries = 2
	}
	return opt
}

// RenderRobustness formats the robustness matrix: one row per workload,
// one column per plan, each cell R² with its delta against the
// fault-free baseline.
func RenderRobustness(rows []RobustnessRow) string {
	var b strings.Builder
	b.WriteString("Robustness matrix: R^2 of Eq. 1 vs RPS_real under fault plans (delta vs fault-free)\n")
	if len(rows) == 0 {
		return b.String()
	}
	width := 8
	for _, p := range rows[0].Plans {
		if len(p.Plan) > width {
			width = len(p.Plan)
		}
	}
	fmt.Fprintf(&b, "%-22s | %8s", "workload", "baseline")
	for _, p := range rows[0].Plans {
		fmt.Fprintf(&b, " | %*s", width+10, p.Plan)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s | %8.4f", r.Workload, r.Baseline)
		for _, p := range r.Plans {
			cell := fmt.Sprintf("%.4f (%+.4f)", p.R2, p.Delta)
			fmt.Fprintf(&b, " | %*s", width+10, cell)
		}
		b.WriteString("\n")
	}
	for _, r := range rows {
		if len(r.Gaps) > 0 {
			fmt.Fprintf(&b, "%s: %d cell(s) lost to supervision gaps: %s\n",
				r.Workload, len(r.Gaps), strings.Join(r.Gaps, ", "))
		}
	}
	worst := 0.0
	for _, r := range rows {
		for _, p := range r.Plans {
			if d := p.Delta; d < worst {
				worst = d
			}
		}
	}
	fmt.Fprintf(&b, "worst delta: %+.4f (thresholds: |delta| < 0.02 reproduces the paper's robustness claim)\n", worst)
	return b.String()
}
