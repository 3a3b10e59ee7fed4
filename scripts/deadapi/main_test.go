package main

import (
	"reflect"
	"testing"
)

// TestCheckFixture runs the gate over testdata, a module (fixture) with
// one declaration per case: internal/a declares them, internal/b's test
// and cmd/x read some, allow.txt exempts a name and a file and lists a
// name that has a reader now and one that is gone, and the readers of
// OwnTestOnly under testdata/ and .hidden/ are skipped. tag_on.go and
// tag_off.go both declare Mode; only tag_off.go's build constraint
// holds, so the pair type-checks and OnOnly is not reported.
func TestCheckFixture(t *testing.T) {
	got := check("testdata", "testdata/allow.txt")
	want := []string{
		"internal/a/a.go:3: internal/a.OwnTestOnly",         // read only by its own package's test
		"internal/a/a.go:8: internal/a.unused",              // unexported, no reader
		"internal/a/a.go:9: internal/a.Shadowed",            // a selector of the method T.Shadowed does not read it
		"internal/a/methods.go:8: internal/a.Dog.Speak",     // only Cat.Speak and its own test's call are selected
		"internal/a/writes.go:10: internal/a.W.assigned",    // =
		"internal/a/writes.go:11: internal/a.W.added",       // op=
		"internal/a/writes.go:12: internal/a.W.bumped",      // ++
		"internal/a/writes.go:13: internal/a.W.keyed",       // a composite literal's key
		"internal/a/writes.go:14: internal/a.W.atomicAdded", // atomic.AddInt64(&w.atomicAdded, 1)
		"internal/a/writes.go:15: internal/a.W.stored",      // w.stored.Store(1)
		"internal/a/writes.go:17: internal/a.W.ownTest",     // written, and read only by its own test
		"internal/a/writes.go:26: internal/a.counter",       // a package var that is only written
		"testdata/allow.txt: stale entry internal/a.Gone",   // names nothing
		"testdata/allow.txt: stale entry internal/a.Stale",  // has a reader now
	}
	// Passing: ReadByCmd (another package's non-test code),
	// ReadByOtherTest (another package's test), T.String (called by
	// fmt), Allowed (allowlisted by name), Builder (by file), W.read
	// (read by W.Read), the embedded W.handle, W.h (a method is called
	// on it), the exported W.Exported, Cat.Speak (selected by cmd/x),
	// Box.Size (read through the Sizer interface) and Mode (tag_off.go's,
	// read by cmd/x).
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("check reported\n%q\nwant\n%q", got, want)
	}
}
