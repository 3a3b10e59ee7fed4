package a

func OwnTestOnly()       {}                 // read only by a_test.go: flagged
func ReadByCmd()         { T{}.Shadowed() } // read by cmd/x: passes
func ReadByOtherTest()   {}                 // read only by internal/b's test: flagged
func Allowed()           {}                 // read only by a_test.go, allowlisted: passes
func Stale()             {}                 // allowlisted but read by cmd/x: the entry is flagged
func unused()            {}                 // no reader at all: flagged
func Shadowed()          {}                 // read only by a_test.go; ReadByCmd selects the method: flagged
func (T) Shadowed()      {}                 // read by ReadByCmd
func (T) String() string { return "t" }     // no reader but fmt: passes

// T is read by cmd/x.
type T struct{}
