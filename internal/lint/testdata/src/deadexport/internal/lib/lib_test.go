package lib

// A use from a test file does not keep TestOnly alive.
func useTestOnly() { TestOnly() }

// Helper is declared in a test file, which is out of scope.
func Helper() {}
