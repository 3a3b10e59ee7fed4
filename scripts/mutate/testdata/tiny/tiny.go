// Package tiny is the mutation tool's test target. Its three mutants are
// one of each kind: negating the if is killed, > becoming >= survives
// (equal operands return the same value either way), and + becoming -
// on strings does not build.
package tiny

// Max returns the larger of a and b.
func Max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Greet greets name.
func Greet(name string) string { return "hi " + name }
