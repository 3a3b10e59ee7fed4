package ebpf

import "encoding/binary"

// sym is a register on a prefix path: an input in>>sh (the ctx word at
// off, or pid_tgid when off is -1), the ctx pointer, or anything else.
// As a term of a row it is a branch outcome: (in>>sh == k) == eq.
type sym struct {
	kind uint8
	sh   uint8
	eq   bool
	off  int32
	k    uint64
}

const symInput, symCtx = 1, 2 // sym kinds; the zero kind is anything else

// row is one exit of a program's pure prefix: the terms of its path and
// the exact r0 and RunStats the interpreter returns when all hold.
type row struct {
	terms []sym
	r0    uint64
	stats RunStats
}

// prefixRows derives the filter table (DESIGN.md §7) of a decoded
// program with a ctx of ctxSize bytes: each mov+exit reached from slot 0
// through the pure prefix, the slots the switch below admits, becomes a
// row. Any other slot ends its path; ktime_get_ns does because a
// fault-injected clock draws from a random stream per call. The walk
// visits at most 256 slots: each row stands alone, so a cut walk loses
// rows, never exactness.
func prefixRows(code []op, ctxSize int) (rows []row) {
	budget := 256
	var walk func(pc int, regs [regMask + 1]sym, terms []sym, st RunStats)
	walk = func(pc int, regs [regMask + 1]sym, terms []sym, st RunStats) {
		for ; budget > 0 && uint(pc) < uint(len(code)); budget-- {
			d := &code[pc]
			a := &regs[d.dst&regMask]
			st.Instructions += int(d.width)
			imm64 := !d.reg && d.mask == ^uint64(0) && d.sh == 0
			switch {
			case d.code == opMov64X:
				*a = regs[d.src&regMask]
			case (d.code == opCallEnv || d.code == opCallEnvMov) && d.k == HelperGetCurrentPidTgid:
				st.HelperCalls++
				regs[R1], regs[R2], regs[R3], regs[R4], regs[R5] = sym{}, sym{}, sym{}, sym{}, sym{}
				if regs[R0] = (sym{kind: symInput, off: -1}); d.code == opCallEnvMov {
					regs[d.dst&regMask] = regs[R0]
				}
			case d.code == opRsh && imm64 && a.kind == symInput && uint64(a.sh)+d.k&63 < 64:
				a.sh += uint8(d.k & 63)
			case d.code == opLdx8 && regs[d.src&regMask].kind == symCtx && d.off >= 0 && int(d.off)+8 <= ctxSize:
				*a = sym{kind: symInput, off: int32(d.off)}
			case d.code == opJa:
				pc = int(d.tgt)
				continue
			case (d.code == opJeq || d.code == opJne || d.code == opJeq0 || d.code == opJne0) && imm64:
				eq := d.code == opJeq || d.code == opJeq0 // taken when equal
				if a.kind != symInput {
					return
				}
				t := sym{kind: symInput, sh: a.sh, eq: eq, off: a.off, k: d.k}
				walk(int(d.tgt), regs, append(terms[:len(terms):len(terms)], t), st)
				t.eq = !eq
				terms = append(terms[:len(terms):len(terms)], t)
			case d.code == opMovExit:
				rows = append(rows, row{terms, d.k, st})
				return
			default:
				return
			}
			pc += int(d.width)
		}
	}
	walk(0, [regMask + 1]sym{R1: {kind: symCtx}}, nil, RunStats{})
	return rows
}

// filter returns the row whose terms all hold for this run, or nil. It
// reads pid_tgid at most once, and only for a term that asks.
func (p *Program) filter(ctx []byte, env HelperEnv) *row {
	pid, havePid := uint64(0), false
rows:
	for i := range p.rows {
		for _, t := range p.rows[i].terms {
			x := pid
			if t.off >= 0 {
				x = binary.LittleEndian.Uint64(ctx[t.off:])
			} else if !havePid {
				pid, havePid = env.CurrentPidTgid(), true
				x = pid
			}
			if (x>>t.sh == t.k) != t.eq {
				continue rows
			}
		}
		return &p.rows[i]
	}
	return nil
}
