package main

import (
	"reflect"
	"testing"
)

// TestCheckFixture runs the gate over testdata, a tree with one
// declaration per case: internal/a declares them, internal/b's test and
// cmd/x read some, allow.txt exempts a name and a file and lists a name
// that has a reader now and one that is gone, and the readers of
// OwnTestOnly under testdata/ and .hidden/ are skipped.
func TestCheckFixture(t *testing.T) {
	got, err := check("testdata", "testdata/allow.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/a/a.go:3: internal/a.OwnTestOnly",        // read only by its own package's test
		"internal/a/a.go:8: internal/a.unused",             // unexported, no reader
		"internal/a/a.go:9: internal/a.Shadowed",           // a selector of its name reads a method
		"testdata/allow.txt: stale entry internal/a.Gone",  // names nothing
		"testdata/allow.txt: stale entry internal/a.Stale", // has a reader now
	}
	// Passing: ReadByCmd (another package's non-test code),
	// ReadByOtherTest (another package's test), T.String (called by
	// fmt), Allowed (allowlisted by name) and Builder (by file).
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("check reported\n%q\nwant\n%q", got, want)
	}
}
