package a

import "sync/atomic"

// W holds one unexported field per kind of write, each written by Write.
// Only the field Read reads, the embedded handle, the handle on which a
// method is called and the exported field pass.
type W struct {
	handle                   // embedded: passes
	assigned    int          // only the left of =: flagged
	added       int          // only the left of +=: flagged
	bumped      int          // only ++: flagged
	keyed       int          // only a composite literal's key: flagged
	atomicAdded int64        // only atomic.AddInt64's receiver: flagged
	stored      atomic.Int64 // only the receiver of Store: flagged
	read        int          // written, and read by Read: passes
	ownTest     int          // written, and read only by a_test.go: flagged
	h           handle       // a method is called on it: passes
	Exported    int          // only written, but exported: passes
}

type handle struct{}

func (handle) Inc() {}

var counter int // only written: flagged

// Write writes every field of w once.
func Write() *W {
	w := &W{keyed: 1}
	w.assigned = 1
	w.added += 2
	w.bumped++
	atomic.AddInt64(&w.atomicAdded, 1)
	w.stored.Store(1)
	w.read, w.ownTest = 1, 2
	w.h.Inc()
	w.Exported = 4
	counter = 3
	return w
}

// Read reads w.read.
func (w *W) Read() int { return w.read }
