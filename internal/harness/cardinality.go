package harness

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"reqlens/internal/ebpf"
)

// Cardinality-sweep geometry: one count-min sketch and one HashPipe,
// shared by every swept cardinality so the table reads as "fixed
// memory, growing key space". The exact-map comparison charges 16
// bytes per key (8-byte key + 8-byte counter), the entry payload a
// BPF_MAP_TYPE_HASH would store — kernel bucket overhead is ignored,
// which only understates the sketch's advantage.
const (
	cardCMSWidth        = 2048
	cardCMSDepth        = 4
	cardTopStages       = 4
	cardTopSlots        = 512
	cardTopK            = 10
	cardExactEntryBytes = 16
)

// DefaultCardinalities is the paper-scale sweep: 1e2 .. 1e6 distinct
// keys through fixed sketch memory.
func DefaultCardinalities() []int {
	return []int{100, 1_000, 10_000, 100_000, 1_000_000}
}

// CardinalityPoint is one row of the accuracy-vs-memory table: a fixed
// sketch geometry loaded with a key space of the given cardinality.
type CardinalityPoint struct {
	Keys    int    // distinct keys streamed (every key appears)
	Updates uint64 // total increments (N)

	SketchBytes int     // CMS + HashPipe footprint
	ExactBytes  int     // exact per-key map at 16 B/entry
	MemRatio    float64 // ExactBytes / SketchBytes

	Bound         uint64  // εN with ε = e/width
	MaxErr        uint64  // worst per-key overestimate
	MeanErr       float64 // mean per-key overestimate
	ViolationFrac float64 // fraction of keys with error > Bound
	Delta         float64 // δ = e^-depth, the allowed violation fraction
	WithinBound   bool    // ViolationFrac <= Delta

	RecallAtK float64 // HashPipe top-K recall vs the exact oracle
	K         int

	// Gap marks a cardinality that failed under supervision; only Keys
	// is meaningful. Absent from JSON on complete runs.
	Gap bool `json:",omitempty"`
}

// CardinalityResult is the full sweep.
type CardinalityResult struct {
	CMSWidth, CMSDepth  int
	TopStages, TopSlots int
	K                   int
	Points              []CardinalityPoint
}

// cardProgram builds the compiled feeder program: every Run applies
// cms_update and hashpipe_insert with the key and increment read
// straight from the 16-byte ctx, so the sweep measures the same map
// path a production probe executes.
func cardProgram(cms *ebpf.CMS, pipe *ebpf.HashPipe) *ebpf.Program {
	return ebpf.MustLoad(ebpf.ProgramSpec{
		Name: "cardinality",
		Insns: []ebpf.Instruction{
			ebpf.Mov64Reg(ebpf.R6, ebpf.R1),
			ebpf.LoadMapFD(ebpf.R1, 1)[0], ebpf.LoadMapFD(ebpf.R1, 1)[1],
			ebpf.Mov64Reg(ebpf.R2, ebpf.R6),
			ebpf.LoadMem(ebpf.R3, ebpf.R6, 8, ebpf.SizeDW),
			ebpf.Call(ebpf.HelperCMSUpdate),
			ebpf.LoadMapFD(ebpf.R1, 2)[0], ebpf.LoadMapFD(ebpf.R1, 2)[1],
			ebpf.Mov64Reg(ebpf.R2, ebpf.R6),
			ebpf.LoadMem(ebpf.R3, ebpf.R6, 8, ebpf.SizeDW),
			ebpf.Call(ebpf.HelperHashPipeInsert),
			ebpf.Exit(),
		},
		Maps:    map[int32]ebpf.Map{1: cms, 2: pipe},
		CtxSize: 16,
	})
}

// cardinalityPoint loads one cardinality through a fresh sketch pair:
// one pass over every key (so the cardinality is exact), then 2x extra
// Zipf-skewed draws (s = 1.2, the heavy tail per-PID traffic shows),
// all pushed through the compiled program. Pure in (keys, seed).
func cardinalityPoint(keys int, seed int64) CardinalityPoint {
	cms := ebpf.NewCMS("card_cms", 8, cardCMSWidth, cardCMSDepth)
	pipe := ebpf.NewHashPipe("card_top", 8, cardTopStages, cardTopSlots)
	prog := cardProgram(cms, pipe)
	env := &ebpf.FixedEnv{}
	ctx := make([]byte, 16)
	binary.LittleEndian.PutUint64(ctx[8:16], 1) // inc = 1

	oracle := make(map[uint64]uint64, keys)
	push := func(id uint64) {
		binary.LittleEndian.PutUint64(ctx[0:8], id)
		if _, _, err := prog.Run(ctx, env); err != nil {
			panic(fmt.Sprintf("cardinality feeder fault: %v", err))
		}
		oracle[id]++
	}
	for id := 0; id < keys; id++ {
		push(uint64(id))
	}
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.2, 1, uint64(keys-1))
	for i := 0; i < 2*keys; i++ {
		push(z.Uint64())
	}

	p := CardinalityPoint{
		Keys:        keys,
		Updates:     cms.Total(),
		SketchBytes: cms.Bytes() + pipe.Bytes(),
		ExactBytes:  keys * cardExactEntryBytes,
		Bound:       cms.ErrorBound(),
		Delta:       cms.Delta(),
		K:           cardTopK,
	}
	p.MemRatio = float64(p.ExactBytes) / float64(p.SketchBytes)

	var key [8]byte
	var sumErr, violations uint64
	for id, truth := range oracle {
		binary.LittleEndian.PutUint64(key[:], id)
		est := cms.Estimate(key[:])
		if est < truth {
			panic(fmt.Sprintf("cardinality: cms underestimated key %d (%d < %d)", id, est, truth))
		}
		err := est - truth
		sumErr += err
		if err > p.MaxErr {
			p.MaxErr = err
		}
		if err > p.Bound {
			violations++
		}
	}
	p.MeanErr = float64(sumErr) / float64(len(oracle))
	p.ViolationFrac = float64(violations) / float64(len(oracle))
	p.WithinBound = p.ViolationFrac <= p.Delta

	// recall@K: HashPipe candidates vs the exact oracle ranking
	// (count desc, key asc — both sides deterministic).
	ids := make([]uint64, 0, len(oracle))
	for id := range oracle {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		ci, cj := oracle[ids[i]], oracle[ids[j]]
		if ci != cj {
			return ci > cj
		}
		return ids[i] < ids[j]
	})
	if len(ids) > cardTopK {
		ids = ids[:cardTopK]
	}
	got := make(map[uint64]bool, cardTopK)
	for _, e := range pipe.TopK(cardTopK) {
		got[binary.LittleEndian.Uint64(e.Key)] = true
	}
	hits := 0
	for _, id := range ids {
		if got[id] {
			hits++
		}
	}
	p.RecallAtK = float64(hits) / float64(len(ids))
	return p
}

// CardinalitySweep pushes each cardinality in cards through the fixed
// sketch geometry and reports accuracy (count-min error vs the εN
// bound, HashPipe recall@K) against memory (sketch vs exact map).
// Cardinalities run as engine points: deterministic at any
// Parallelism, checkpointable, resumable. Nil cards defaults to
// DefaultCardinalities.
func CardinalitySweep(cards []int, opt ExpOptions) CardinalityResult {
	if len(cards) == 0 {
		cards = DefaultCardinalities()
	}
	opt = opt.withDefaults()
	cells := make([]Cell, len(cards))
	for i, k := range cards {
		cells[i] = Cell{Label: fmt.Sprintf("cardinality keys=%d", k), Seed: opt.Seed + int64(i), Row: i}
	}
	points, _ := RunCells(opt, "cardinality", cells,
		func(_ PointCtx, c Cell) CardinalityPoint { return cardinalityPoint(cards[c.Row], c.Seed) },
		func(c Cell) CardinalityPoint { return CardinalityPoint{Keys: cards[c.Row], Gap: true} })
	return CardinalityResult{
		CMSWidth: cardCMSWidth, CMSDepth: cardCMSDepth,
		TopStages: cardTopStages, TopSlots: cardTopSlots,
		K: cardTopK, Points: points,
	}
}

// RenderCardinality formats the accuracy-vs-memory table.
func RenderCardinality(r CardinalityResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cardinality: sketch accuracy vs memory (CMS %dx%d, HashPipe %dx%d, K=%d)\n",
		r.CMSWidth, r.CMSDepth, r.TopStages, r.TopSlots, r.K)
	fmt.Fprintf(&b, "%9s | %9s | %9s | %10s | %7s | %9s | %8s | %7s | %6s | %9s | %s\n",
		"keys", "updates", "sketch B", "exact B", "mem x", "εN bound", "max err",
		"viol %", "δ %", "recall@K", "bound ok")
	b.WriteString(strings.Repeat("-", 118) + "\n")
	for _, p := range r.Points {
		if p.Gap {
			fmt.Fprintf(&b, "%9d | %s point lost to supervision gap\n", p.Keys, gapMark)
			continue
		}
		ok := "yes"
		if !p.WithinBound {
			ok = "NO"
		}
		fmt.Fprintf(&b, "%9d | %9d | %9d | %10d | %6.1fx | %9d | %8d | %6.2f%% | %5.2f%% | %9.2f | %s\n",
			p.Keys, p.Updates, p.SketchBytes, p.ExactBytes, p.MemRatio, p.Bound,
			p.MaxErr, 100*p.ViolationFrac, 100*p.Delta, p.RecallAtK, ok)
	}
	return b.String()
}
