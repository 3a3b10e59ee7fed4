package tiny

import "testing"

func TestMax(t *testing.T) {
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Fatal("Max")
	}
}
