package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"reqlens/internal/workloads"
)

// TestStreamBatchAgreement is the tentpole guarantee: with a ring that
// never overflows, the streaming observer's windows equal the batch
// observer's bit-for-bit at every load level.
func TestStreamBatchAgreement(t *testing.T) {
	opt := Quick()
	opt.Levels = []float64{0.3, 0.7, 1.0}
	res := StreamAgreement(workloads.DataCaching(), opt)
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.TotalDropped != 0 {
		t.Fatalf("default ring dropped %d events", res.TotalDropped)
	}
	if res.Disagreements != 0 {
		for _, p := range res.Points {
			if !p.Agree {
				t.Errorf("level %.2f:\nbatch  = %+v\nstream = %+v", p.Level, p.Batch, p.Stream.Window)
			}
		}
		t.Fatalf("%d/%d windows diverged", res.Disagreements, len(res.Points))
	}
	for _, p := range res.Points {
		if p.Stream.Events == 0 {
			t.Fatalf("level %.2f consumed no events", p.Level)
		}
		if p.Batch.Send.Calls == 0 {
			t.Fatalf("level %.2f saw no traffic", p.Level)
		}
	}
	out := RenderStreamAgreement(res)
	if !strings.Contains(out, "agree bit-for-bit") {
		t.Fatalf("render missing agreement line:\n%s", out)
	}
}

// TestStreamDropDeterminism undersizes the ring so it overflows between
// drains, and asserts the loss profile is (a) nonzero, (b) bit-identical
// across runs, and (c) independent of engine parallelism.
func TestStreamDropDeterminism(t *testing.T) {
	opt := Quick()
	opt.Levels = []float64{0.6, 1.0}
	opt.StreamBytes = 4096

	seq := opt
	seq.Parallelism = 1
	par := opt
	par.Parallelism = 4

	spec := workloads.DataCaching()
	a := StreamAgreement(spec, seq)
	b := StreamAgreement(spec, par)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("drop profile differs across parallelism:\nseq: %+v\npar: %+v", a, b)
	}
	for _, p := range a.Points {
		if p.Stream.Events+p.Stream.Dropped == 0 {
			t.Fatalf("level %.2f produced no events at all", p.Level)
		}
	}
	if a.TotalDropped == 0 {
		t.Fatalf("a %d-byte ring should overflow under load: %+v", opt.StreamBytes, a.Points)
	}
	// Same-seed rerun: identical to the first.
	c := StreamAgreement(spec, seq)
	if !reflect.DeepEqual(a, c) {
		t.Fatal("same-seed rerun diverged")
	}
	if out := RenderStreamAgreement(a); !strings.Contains(out, "(ring 4096 B)") ||
		!strings.Contains(out, fmt.Sprintf("%d events dropped", a.TotalDropped)) {
		t.Fatalf("render output malformed:\n%s", out)
	}
}

// TestRigStreamOnly checks that a rig can run the streaming observer
// without the batch probes attached.
func TestRigStreamOnly(t *testing.T) {
	spec := workloads.DataCaching()
	rig := NewRig(spec, RigOptions{
		Seed: 7, Rate: 0.5 * spec.FailureRPS, Stream: true,
	})
	defer rig.Close()
	if rig.Obs != nil {
		t.Fatal("batch observer attached without Probes")
	}
	rig.Warmup(200 * 1e6) // 200ms
	m := rig.Measure(100 * 1e6)
	if m.Stream.Events == 0 {
		t.Fatalf("stream saw no events: %+v", m.Stream)
	}
	if m.Stream.Send.Calls == 0 || m.Stream.Poll.Calls == 0 {
		t.Fatalf("stream window empty: %+v", m.Stream.Window)
	}
	if m.Obs.RPSObsv() != 0 {
		t.Fatal("batch fields should stay zero without Probes")
	}
}
