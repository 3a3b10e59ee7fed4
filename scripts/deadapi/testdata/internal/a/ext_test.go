package a_test

import (
	"testing"

	"fixture/internal/a"
)

// An external test package reads only as a test does.
func TestExternal(t *testing.T) { a.ReadByOtherTest() }
