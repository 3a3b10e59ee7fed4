package a

// Builder is read only by a_test.go, and its file is allowlisted.
func Builder() {}
