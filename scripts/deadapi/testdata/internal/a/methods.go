package a

// Cat and Dog share a method name; cmd/x calls only Cat's.
type Cat struct{}
type Dog struct{}

func (Cat) Speak() {} // read by cmd/x: passes
func (Dog) Speak() {} // only Cat.Speak is selected: flagged

// Sizer's Size is called by Total, so Box.Size is read through it.
type Sizer interface{ Size() int }

// Box implements Sizer.
type Box struct{}

func (Box) Size() int { return 1 } // read through Sizer: passes

// Total reads s through the interface.
func Total(s Sizer) int { return s.Size() }
