package sim

import (
	"math/rand"
	"testing"
)

// TestFIFOMatchesSliceQueue: random pushes and pops, through growth and
// wrap-around, come out in the order the append/reslice idiom gives.
func TestFIFOMatchesSliceQueue(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q FIFO[int]
	var want []int
	for i := 0; i < 20000; i++ {
		// Long alternating phases, so the queue both fills past several
		// doublings and drains to empty.
		pushPct := 90
		if (i/500)%2 == 1 {
			pushPct = 10
		}
		if len(want) == 0 || rng.Intn(100) < pushPct {
			q.Push(i)
			want = append(want, i)
		} else {
			if got := q.Pop(); got != want[0] {
				t.Fatalf("op %d: popped %d, want %d", i, got, want[0])
			}
			want = want[1:]
		}
		if q.Len() != len(want) {
			t.Fatalf("op %d: Len %d, want %d", i, q.Len(), len(want))
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Pop of an empty FIFO did not panic")
		}
	}()
	for q.Len() > 0 {
		q.Pop()
	}
	q.Pop()
}

// TestFIFOSteadyStateAllocs: once grown to its working depth the queue
// reuses its ring; the idiom it replaced reallocated on nearly every
// refill.
func TestFIFOSteadyStateAllocs(t *testing.T) {
	var q FIFO[*int]
	v := new(int)
	for i := 0; i < 5; i++ {
		q.Push(v)
	}
	if a := testing.AllocsPerRun(1000, func() {
		q.Push(v)
		q.Pop()
		q.Pop()
		q.Push(v)
	}); a != 0 {
		t.Fatalf("%v allocations per push/pop cycle at a steady depth, want 0", a)
	}
}
