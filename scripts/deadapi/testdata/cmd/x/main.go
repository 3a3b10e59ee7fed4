package main

import "fixture/internal/a"

func main() {
	a.ReadByCmd()
	a.Stale()
	var t a.T
	_ = t
}
