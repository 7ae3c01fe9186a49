package txn

// SetHook installs the crash-injection hook, invoked at every named
// protocol point inside Commit (including the pre-fence points inside the
// intent log). The hook stops the protocol by panicking with
// InjectedCrash.
func (m *Manager) SetHook(h func(point string)) {
	m.hook = h
	for _, s := range m.topo.Load().stores {
		s.Intents().Hook = h
	}
}
