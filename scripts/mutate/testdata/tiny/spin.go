package tiny

// Spin counts n down to zero; its - becoming + never returns for n > 0.
func Spin(n int) int {
	for n != 0 {
		n = n - 1
	}
	return n
}
