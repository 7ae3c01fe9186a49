package nvm

import "math/rand"

// Policy decides, at crash time, whether a given not-yet-persistent cache
// line reached NVM before power was lost. A real machine makes this choice
// according to its undocumented replacement traffic; test policies make it
// deterministic, random, or adversarial.
type Policy interface {
	// Persist reports whether the line was written back before the crash.
	Persist(line int) bool
}

// PolicyFunc adapts a function to the Policy interface.
type PolicyFunc func(line int) bool

// Persist implements Policy.
func (f PolicyFunc) Persist(line int) bool { return f(line) }

// PersistAll persists every dirty line: the crash happened "just after" an
// implicit full flush. Recovery still must roll back the failed epoch.
var PersistAll Policy = PolicyFunc(func(int) bool { return true })

// PersistNone drops every dirty line: NVM holds exactly the state of the
// last completed global flush.
var PersistNone Policy = PolicyFunc(func(int) bool { return false })

// RandomPolicy persists each dirty line independently with probability p.
// The zero seed is a valid fixed seed; distinct seeds give distinct crashes.
func RandomPolicy(p float64, seed int64) Policy {
	rng := rand.New(rand.NewSource(seed))
	return PolicyFunc(func(int) bool { return rng.Float64() < p })
}
