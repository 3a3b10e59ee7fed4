//go:build !fixturetag

package a

// Mode is read by cmd/x.
func Mode() string { return "off" }
