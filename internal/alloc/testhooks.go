package alloc

// Hooks for other packages' tests; production code never calls them.

// ClassPayloadWords returns the payload capacity of class c, which is also
// the offset of a class-c object's header. core's
// TestPropertyVersionSlotsInjective sizes its values to fill a class
// exactly, and TestValueBlockOverwriteDirtiesOnlyTheOldHeader finds a freed
// block's header with it.
func ClassPayloadWords(c int) uint64 { return classWords[c] - headerWords }
