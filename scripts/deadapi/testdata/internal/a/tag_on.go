//go:build fixturetag

package a

// Mode redeclares tag_off.go's; the build constraint excludes this file.
func Mode() string { return "on" }

func OnOnly() {} // in an excluded file: not reported
