package b

import (
	"testing"

	"fixture/internal/a"
)

func TestB(t *testing.T) { a.ReadByOtherTest() }
