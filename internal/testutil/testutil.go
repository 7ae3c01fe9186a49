// Package testutil holds helpers shared by the test suites: deterministic
// payloads for the crash-consistency tests and a Prometheus exposition
// linter for every test that scrapes /metrics. Only tests import it.
package testutil

// Pattern fills n bytes deterministically from seed (xorshift64), so the
// crash tests can detect torn values byte-by-byte.
func Pattern(seed uint64, n int) []byte {
	v := make([]byte, n)
	x := seed*0x9E3779B97F4A7C15 + 1
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = byte(x)
	}
	return v
}
