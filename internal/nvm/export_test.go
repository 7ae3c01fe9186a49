package nvm

// Lines returns the number of cache lines in the arena.
func (a *Arena) Lines() int { return len(a.flags) }
