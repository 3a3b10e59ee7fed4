package main

import "fixture/internal/a"

func main() {
	a.ReadByCmd()
	a.Stale()
	var t a.T
	_ = t
	_ = a.Write().Read()
	a.Cat{}.Speak()
	_ = a.Dog{}
	_ = a.Total(a.Box{}) + len(a.Mode())
}
