// Package crashpoint is the crash-injection seam of incll.DB, kept off
// the public API. A DB fires its hook at every protocol point of a
// snapshot export ("header", "kv-frame", "scan-done", "anchor",
// "changes-frame", "end") and of an online reshard ("reshard-start",
// "snapshot-done", "restore-done", "tail-batch", "pre-cutover",
// "cutover-advanced", "cutover-drained", "cutover-target-committed",
// "cutover-manifest"); a non-nil return aborts the operation there (or,
// after the reshard's manifest commit, merely reports). The two sets share
// no name, so one hook per DB serves both. Only tests and
// internal/crashtest install hooks.
package crashpoint

// Hook is fired with the name of each protocol point reached.
type Hook = func(point string) error

// install is package incll's setter, registered at its init.
var install func(db any, h Hook)

// Register records the setter Set calls. Package incll calls it once, at
// init.
func Register(f func(db any, h Hook)) { install = f }

// Set installs h as db's crash-point hook; nil removes it. db is an
// *incll.DB. Safe while db serves snapshots: an export reads the hook once,
// when it starts.
func Set(db any, h Hook) { install(db, h) }
