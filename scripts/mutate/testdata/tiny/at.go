package tiny

// At returns s[i], or 0 past the end of s. Both of its mutants index
// past the end, which panics the first test that calls it there.
func At(s []int, i int) int {
	if i < len(s) {
		return s[i]
	}
	return 0
}
