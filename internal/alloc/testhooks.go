package alloc

// Hooks for other packages' tests; production code never calls them.

// ClassPayloadWords returns the payload capacity of class c: its whole
// size, since objects carry no header. core's
// TestPropertyVersionSlotsInjective sizes its values to fill a class
// exactly.
func ClassPayloadWords(c int) uint64 { return classWords[c] }
