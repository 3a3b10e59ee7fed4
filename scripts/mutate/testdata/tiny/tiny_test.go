package tiny

import "testing"

func TestMax(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Fatal("Max")
	}
}

func TestAtEnd(t *testing.T) {
	if At([]int{1}, 1) != 0 {
		t.Fatal("At")
	}
}

func TestAtRecovers(t *testing.T) {
	defer func() {
		if recover() != nil {
			t.Error("At panicked")
		}
	}()
	At([]int{1}, 1)
}

func TestSpin(t *testing.T) {
	if Spin(3) != 0 {
		t.Fatal("Spin")
	}
}
