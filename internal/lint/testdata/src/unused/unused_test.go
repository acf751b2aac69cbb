package unused

// A reference from a test file does not keep code alive.
var _ = onlyTests() + reference()
