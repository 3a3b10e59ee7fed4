package a

import "testing"

func TestA(t *testing.T) {
	OwnTestOnly()
	Allowed()
	Builder()
	Shadowed()
}
