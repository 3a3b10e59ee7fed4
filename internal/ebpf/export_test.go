package ebpf

import (
	"fmt"
	"strings"
)

// This file opens a few internals to the external tests in package
// ebpf_test (prefix_test.go), which build the shipped probes and so
// cannot live in package ebpf.

// RunVM is runVM: Run without the filter table.
func (p *Program) RunVM(ctx []byte, env HelperEnv) (uint64, RunStats, error) {
	return p.runVM(ctx, env)
}

// FilterRows is the number of rows in the filter table.
func (p *Program) FilterRows() int { return len(p.rows) }

// Insns is the loaded instruction stream.
func (p *Program) Insns() []Instruction { return p.insns }

// MapState renders every map the program references, in slot order:
// the maps hold no pointers, so %+v prints their whole state.
func (p *Program) MapState() string {
	var b strings.Builder
	for i := range p.code {
		if h := p.code[i].h; h != nil && h.h != nil {
			fmt.Fprintf(&b, "%+v\n", h.h.m)
		}
	}
	return b.String()
}

// GenProgram and DiffMaps are the differential suite's program
// generator and map set.
var GenProgram, DiffMaps = genProgram, diffMaps
