package replnet

// AppliedEpoch returns the follower's applied watermark: the last
// released epoch fully applied and committed this session (the bootstrap
// anchor right after a (re)connect).
func (c *Client) AppliedEpoch() uint64 { return c.applied.Load() }

// LagEpochs returns how many released epochs the follower still trails
// the primary's last-heard horizon by.
func (c *Client) LagEpochs() uint64 {
	r, a := c.released.Load(), c.applied.Load()
	if r > a {
		return r - a
	}
	return 0
}
